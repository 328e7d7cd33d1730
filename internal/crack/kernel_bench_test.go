package crack

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// benchColumn builds a cold 2^18-tuple column for the cold-start kernel
// benchmarks (same shape as BenchmarkCrackRangeFirstQuery).
func benchColumn() ([]Value, []Value) { return randColumn(1<<18, 1) }

// randColumn returns n head values drawn uniformly from [0, n) and the
// tail of tuple keys 0..n-1.
func randColumn(n int, seed int64) ([]Value, []Value) {
	rng := rand.New(rand.NewSource(seed))
	head, tail := make([]Value, n), make([]Value, n)
	for i := range head {
		head[i] = Value(rng.Int63n(int64(n)))
		tail[i] = Value(i)
	}
	return head, tail
}

// traffic returns the bytes the kernel work counted in ps's stats reads and
// writes: 8 per visited head value, and per moved tuple a read and a write
// of its head and tail (of its tail alone in a pairs without a head).
func traffic(ps []*Pairs) int {
	bytes := 0
	for _, p := range ps {
		perMove := 32
		if p.Head == nil {
			perMove = 16
		}
		bytes += 8*p.Stats.Visited + perMove*p.Stats.Moved
	}
	return bytes
}

// benchKernel times crack over b.N cold copies of head and tail. Each crack
// gets members fresh pairs (a leader, then followers with its head), and the
// copies are refreshed outside the timer in batches of about 2^16 tuples,
// so small pieces do not pay a timer stop per crack. It reports bw_frac: the
// kernel's rate over the bytes its stats say it read and wrote (traffic),
// divided by the rate of a copy with the same traffic (half the bytes read,
// half written), timed in the same run.
func benchKernel(b *testing.B, head, tail []Value, members int, crack func(ps []*Pairs)) {
	batch := max(1, (1<<16)/len(head))
	sets := make([][]*Pairs, batch)
	for k := range sets {
		for range members {
			sets[k] = append(sets[k], WrapPairs(make([]Value, len(head)), make([]Value, len(tail))))
		}
	}
	var src, dst []Value
	var copyTime time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		b.StopTimer()
		k := min(batch, b.N-done)
		for _, set := range sets[:k] {
			for _, p := range set {
				copy(p.Head, head)
				copy(p.Tail, tail)
				p.Idx, p.Stats = crackindex.New(), KernelStats{}
			}
		}
		b.StartTimer()
		for _, set := range sets[:k] {
			crack(set)
		}
		b.StopTimer()
		n := 0
		for _, set := range sets[:k] {
			n += traffic(set) / 16 // values copied: half the traffic read, half written
		}
		if n > len(src) {
			src, dst = make([]Value, n), make([]Value, n)
			copy(dst, src) // fault the pages in before the timed copies
		}
		start := time.Now()
		copy(dst[:n], src[:n])
		copyTime += time.Since(start)
		b.StartTimer()
	}
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(copyTime)/float64(b.Elapsed()), "bw_frac")
	}
}

// BenchmarkCrackInTwo measures the seed kernel on a cold column: two
// independent crack-in-two passes, one per predicate bound.
func BenchmarkCrackInTwo(b *testing.B) {
	head, tail := benchColumn()
	pred := store.Range(1000, 1<<17)
	benchKernel(b, head, tail, 1, func(ps []*Pairs) {
		ps[0].CrackBound(pred.LowerBound())
		ps[0].CrackBound(pred.UpperBound())
	})
}

// BenchmarkCrackRangeCold measures the same-piece range crack (the whole
// piece partitioned at one bound, the remainder at the other) on the same
// cold column and predicate.
func BenchmarkCrackRangeCold(b *testing.B) {
	head, tail := benchColumn()
	pred := store.Range(1000, 1<<17)
	benchKernel(b, head, tail, 1, func(ps []*Pairs) { ps[0].CrackRange(pred) })
}

// BenchmarkCrackRangeColdFollower measures two aligned maps cracking one
// cold 1M-tuple piece: "joint" is a leader with one follower
// (CrackRangeWith: one pass over the leader's head, every swap applied
// twice), "solo" two independent CrackRange calls.
func BenchmarkCrackRangeColdFollower(b *testing.B) {
	head, tail := randColumn(1<<20, 1)
	pred := store.Range(4000, 1<<19)
	b.Run("joint", func(b *testing.B) {
		benchKernel(b, head, tail, 2, func(ps []*Pairs) { ps[0].CrackRangeWith(pred, ps[1:]) })
	})
	b.Run("solo", func(b *testing.B) {
		benchKernel(b, head, tail, 2, func(ps []*Pairs) {
			ps[0].CrackRange(pred)
			ps[1].CrackRange(pred)
		})
	})
}

// BenchmarkCrackSized prices a cold crack-in-two at the middle value and a
// cold range crack of a tenth of the domain over pieces from 512 tuples,
// the size converged queries crack, to 1M.
func BenchmarkCrackSized(b *testing.B) {
	for _, n := range []int{512, 4 << 10, 64 << 10, 1 << 20} {
		head, tail := randColumn(n, 3)
		mid := crackindex.Bound{V: Value(n / 2), Incl: true}
		pred := store.Range(Value(n/3), Value(n/3+n/10))
		b.Run(fmt.Sprintf("in-two/n=%d", n), func(b *testing.B) {
			benchKernel(b, head, tail, 1, func(ps []*Pairs) { ps[0].CrackBound(mid) })
		})
		b.Run(fmt.Sprintf("range/n=%d", n), func(b *testing.B) {
			benchKernel(b, head, tail, 1, func(ps []*Pairs) { ps[0].CrackRange(pred) })
		})
	}
}

// BenchmarkCrackInTwoBranchyRef runs BenchmarkCrackInTwo's two partitions
// through the two-pointer reference kernel directly: the branchy loop the
// block partition replaces, which mispredicts about once per tuple on
// random data.
func BenchmarkCrackInTwoBranchyRef(b *testing.B) {
	head, tail := benchColumn()
	c1, _ := cut(store.Range(1000, 1<<17).LowerBound())
	c2, _ := cut(store.Range(1000, 1<<17).UpperBound())
	benchKernel(b, head, tail, 1, func(ps []*Pairs) {
		p := ps[0]
		split := twoPointer(p, c1, 0, p.Len())
		twoPointer(p, c2, split, p.Len())
		p.Stats.Visited += 2*p.Len() - split
	})
}

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
