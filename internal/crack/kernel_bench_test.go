package crack

import (
	"math/rand"
	"testing"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// benchColumn builds a cold 2^18-tuple column for the cold-start kernel
// benchmarks (same shape as BenchmarkCrackRangeFirstQuery).
func benchColumn() ([]Value, []Value) {
	rng := rand.New(rand.NewSource(1))
	head := make([]Value, 1<<18)
	tail := make([]Value, 1<<18)
	for i := range head {
		head[i] = Value(rng.Int63n(1 << 18))
		tail[i] = Value(i)
	}
	return head, tail
}

// BenchmarkCrackInTwo measures the seed kernel on a cold column: two
// independent crack-in-two passes, one per predicate bound.
func BenchmarkCrackInTwo(b *testing.B) {
	head, tail := benchColumn()
	pred := store.Range(1000, 1<<17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := WrapPairs(append([]Value(nil), head...), append([]Value(nil), tail...))
		b.StartTimer()
		p.CrackBound(pred.LowerBound())
		p.CrackBound(pred.UpperBound())
	}
}

// BenchmarkCrackRangeCold measures the fused same-piece range crack (one
// counting pass for both bounds, two repairs) on the same cold column and
// predicate.
func BenchmarkCrackRangeCold(b *testing.B) {
	head, tail := benchColumn()
	pred := store.Range(1000, 1<<17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := WrapPairs(append([]Value(nil), head...), append([]Value(nil), tail...))
		b.StartTimer()
		p.CrackRange(pred)
	}
}

// BenchmarkCrackRangeColdFollower measures two aligned maps cracking one
// cold 1M-tuple piece: "joint" is a leader with one follower
// (CrackRangeWith: one counting pass and one misplaced-tuple scan, every
// swap applied twice), "solo" two independent CrackRange calls.
func BenchmarkCrackRangeColdFollower(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 20
	head, tail := make([]Value, n), make([]Value, n)
	for i := range head {
		head[i] = Value(rng.Int63n(n))
		tail[i] = Value(i)
	}
	pred := store.Range(4000, n/2)
	fresh := func() *Pairs { return WrapPairs(append([]Value(nil), head...), append([]Value(nil), tail...)) }
	b.Run("joint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			lead, follower := fresh(), fresh()
			b.StartTimer()
			lead.CrackRangeWith(pred, []*Pairs{follower})
		}
	})
	b.Run("solo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, q := fresh(), fresh()
			b.StartTimer()
			p.CrackRange(pred)
			q.CrackRange(pred)
		}
	})
}

// benchCrackInTwoKernel measures the crack-in-two inner loop alone on a
// cold random column (the worst case for branch prediction: every tuple's
// side is a coin flip).
func benchCrackInTwoKernel(b *testing.B, branchy bool) {
	head, tail := benchColumn()
	pred := store.Range(1000, 1<<17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := WrapPairs(append([]Value(nil), head...), append([]Value(nil), tail...))
		p.Branchy = branchy
		b.StartTimer()
		p.CrackBound(pred.LowerBound())
		p.CrackBound(pred.UpperBound())
	}
}

// BenchmarkCrackInTwoPredicated is the branch-free predicated default.
func BenchmarkCrackInTwoPredicated(b *testing.B) { benchCrackInTwoKernel(b, false) }

// BenchmarkCrackInTwoBranchyRef is the branchy two-pointer reference.
func BenchmarkCrackInTwoBranchyRef(b *testing.B) { benchCrackInTwoKernel(b, true) }

// benchCrackedPairs returns a 2^16-tuple column cracked into ~512 pieces,
// plus a batch of pending inserts spread over the domain.
func benchCrackedPairs(batch int) (*Pairs, []Value, []Value) {
	rng := rand.New(rand.NewSource(2))
	const n = 1 << 16
	head := make([]Value, n)
	tail := make([]Value, n)
	for i := range head {
		head[i] = Value(rng.Int63n(n))
		tail[i] = Value(i)
	}
	p := WrapPairs(head, tail)
	for q := 0; q < 512; q++ {
		lo := rng.Int63n(n)
		p.CrackRange(store.Range(lo, lo+(n>>6)))
	}
	vals := make([]Value, batch)
	tails := make([]Value, batch)
	for i := range vals {
		vals[i] = Value(rng.Int63n(n))
		tails[i] = Value(n + i)
	}
	return p, vals, tails
}

// BenchmarkRippleInsertSequential merges a 256-tuple pending batch with one
// RippleInsert walk-and-shift per tuple (the seed update path).
func BenchmarkRippleInsertSequential(b *testing.B) {
	base, vals, tails := benchCrackedPairs(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := WrapPairs(append([]Value(nil), base.Head...), append([]Value(nil), base.Tail...))
		base.Idx.Walk(func(bd crackindex.Bound, pos int) { p.Idx.Insert(bd, pos) })
		b.StartTimer()
		for j := range vals {
			p.RippleInsert(vals[j], tails[j])
		}
	}
}

// BenchmarkRippleInsertBatch merges the same pending batch in a single
// pass: one boundary walk, one piece-wise reshuffle, one bulk shift.
func BenchmarkRippleInsertBatch(b *testing.B) {
	base, vals, tails := benchCrackedPairs(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := WrapPairs(append([]Value(nil), base.Head...), append([]Value(nil), base.Tail...))
		base.Idx.Walk(func(bd crackindex.Bound, pos int) { p.Idx.Insert(bd, pos) })
		b.StartTimer()
		p.RippleInsertBatch(vals, tails)
	}
}
