package crack

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crackstore/internal/store"
)

func randPairs(rng *rand.Rand, n int, domain int64) *Pairs {
	head := make([]Value, n)
	tail := make([]Value, n)
	for i := range head {
		head[i] = Value(rng.Int63n(domain))
		tail[i] = Value(i) // tail identifies the original tuple
	}
	return WrapPairs(head, tail)
}

func randPred(rng *rand.Rand, domain int64) store.Pred {
	lo := rng.Int63n(domain)
	hi := lo + rng.Int63n(domain-lo+1)
	return store.Pred{Lo: lo, Hi: hi, LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0}
}

// multiset of (head,tail) pairs for content-preservation checks.
func pairSet(p *Pairs) map[[2]Value]int {
	m := map[[2]Value]int{}
	for i := range p.Head {
		m[[2]Value{p.Head[i], p.Tail[i]}]++
	}
	return m
}

func equalSets(a, b map[[2]Value]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestCrackRangeClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := randPairs(rng, 1000, 100)
	before := pairSet(p)
	pred := store.Open(20, 60)
	lo, hi := p.CrackRange(pred)
	// Every tuple inside [lo,hi) matches; none outside does.
	for i := 0; i < p.Len(); i++ {
		in := i >= lo && i < hi
		if pred.Matches(p.Head[i]) != in {
			t.Fatalf("position %d (val %d): inArea=%v matches=%v",
				i, p.Head[i], in, pred.Matches(p.Head[i]))
		}
	}
	if !equalSets(before, pairSet(p)) {
		t.Fatal("cracking changed the tuple multiset")
	}
	if !p.CheckPieces() {
		t.Fatal("piece invariant violated")
	}
}

func TestCrackRangeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randPairs(rng, 500, 50)
	pred := store.Range(10, 30)
	lo1, hi1 := p.CrackRange(pred)
	headCopy := append([]Value(nil), p.Head...)
	lo2, hi2 := p.CrackRange(pred)
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatalf("second crack moved area: (%d,%d) vs (%d,%d)", lo1, hi1, lo2, hi2)
	}
	for i := range headCopy {
		if p.Head[i] != headCopy[i] {
			t.Fatal("second crack physically reorganized data")
		}
	}
}

func TestCrackEmptyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randPairs(rng, 200, 50)
	lo, hi := p.CrackRange(store.Open(25, 25)) // 25 < v < 25: empty
	if lo != hi {
		t.Fatalf("empty predicate returned non-empty area [%d,%d)", lo, hi)
	}
	if !p.CheckPieces() {
		t.Fatal("piece invariant violated")
	}
}

func TestPointPredicate(t *testing.T) {
	p := WrapPairs(
		[]Value{5, 3, 7, 5, 1, 5, 9},
		[]Value{0, 1, 2, 3, 4, 5, 6},
	)
	lo, hi := p.CrackRange(store.Point(5))
	if hi-lo != 3 {
		t.Fatalf("point select found %d tuples, want 3", hi-lo)
	}
	for i := lo; i < hi; i++ {
		if p.Head[i] != 5 {
			t.Fatalf("non-matching value %d in point area", p.Head[i])
		}
	}
}

// Determinism is the invariant underlying adaptive alignment (Section 3.2):
// two pairs with identical initial contents that replay the same predicate
// sequence must be bit-identical afterwards — including tail order.
func TestQuickCrackDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(300)
		head := make([]Value, n)
		for i := range head {
			head[i] = Value(rng.Int63n(100))
		}
		tailA := make([]Value, n)
		tailB := make([]Value, n)
		for i := range tailA {
			tailA[i] = Value(i)
			tailB[i] = Value(i)
		}
		a := WrapPairs(append([]Value(nil), head...), tailA)
		b := WrapPairs(append([]Value(nil), head...), tailB)
		for q := 0; q < 15; q++ {
			pred := randPred(rng, 100)
			a.CrackRange(pred)
			b.CrackRange(pred)
		}
		for i := 0; i < n; i++ {
			if a.Head[i] != b.Head[i] || a.Tail[i] != b.Tail[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after any crack sequence, every index boundary physically holds
// and the tuple multiset is unchanged.
func TestQuickCrackInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPairs(rng, 300, 64)
		before := pairSet(p)
		for q := 0; q < 20; q++ {
			pred := randPred(rng, 64)
			lo, hi := p.CrackRange(pred)
			for i := lo; i < hi; i++ {
				if !pred.Matches(p.Head[i]) {
					return false
				}
			}
		}
		return p.CheckPieces() && equalSets(before, pairSet(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRippleInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randPairs(rng, 300, 50)
	// Crack a few times to create pieces.
	p.CrackRange(store.Open(10, 20))
	p.CrackRange(store.Open(30, 40))
	n := p.Len()
	p.RippleInsert(15, 999)
	if p.Len() != n+1 {
		t.Fatalf("Len = %d, want %d", p.Len(), n+1)
	}
	if !p.CheckPieces() {
		t.Fatal("piece invariant violated after insert")
	}
	// The inserted pair must exist.
	found := false
	for i := range p.Head {
		if p.Head[i] == 15 && p.Tail[i] == 999 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted tuple lost")
	}
	// Selecting its range must include it without recracking issues.
	lo, hi := p.CrackRange(store.Open(10, 20))
	ok := false
	for i := lo; i < hi; i++ {
		if p.Tail[i] == 999 {
			ok = true
		}
	}
	if !ok {
		t.Fatal("inserted tuple not visible to select")
	}
}

// Property: ripple inserts keep piece invariants and preserve prior tuples.
func TestQuickRippleInsert(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPairs(rng, 200, 50)
		for q := 0; q < 5; q++ {
			p.CrackRange(randPred(rng, 50))
		}
		before := pairSet(p)
		inserted := map[[2]Value]int{}
		for k := 0; k < 30; k++ {
			v := Value(rng.Int63n(50))
			tl := Value(1000 + k)
			p.RippleInsert(v, tl)
			inserted[[2]Value{v, tl}]++
		}
		if !p.CheckPieces() {
			return false
		}
		after := pairSet(p)
		for k, c := range before {
			if after[k] < c {
				return false
			}
		}
		for k, c := range inserted {
			if after[k] < c {
				return false
			}
		}
		return p.Len() == 230
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCrackRangeFirstQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	head := make([]Value, 1<<18)
	tail := make([]Value, 1<<18)
	for i := range head {
		head[i] = Value(rng.Int63n(1 << 18))
		tail[i] = Value(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := append([]Value(nil), head...)
		tl := append([]Value(nil), tail...)
		p := WrapPairs(h, tl)
		b.StartTimer()
		p.CrackRange(store.Range(1000, 1<<17))
	}
}

func BenchmarkCrackRangeConverged(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	head := make([]Value, 1<<18)
	tail := make([]Value, 1<<18)
	for i := range head {
		head[i] = Value(rng.Int63n(1 << 18))
		tail[i] = Value(i)
	}
	p := WrapPairs(head, tail)
	for q := 0; q < 1000; q++ {
		lo := rng.Int63n(1 << 18)
		p.CrackRange(store.Range(lo, lo+(1<<15)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(1 << 18)
		p.CrackRange(store.Range(lo, lo+(1<<15)))
	}
}

// Property: the self-organizing histogram (index Estimate) always brackets
// the true result size, and is exact once the predicate's bounds have been
// cracked.
func TestQuickEstimateBracketsTruth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPairs(rng, 400, 200)
		for q := 0; q < 10; q++ {
			p.CrackRange(randPred(rng, 200))
		}
		for q := 0; q < 20; q++ {
			pred := randPred(rng, 200)
			truth := 0
			for _, v := range p.Head {
				if pred.Matches(v) {
					truth++
				}
			}
			min, max, est := p.Idx.Estimate(pred.LowerBound(), pred.UpperBound(), p.Len())
			if !(min <= truth && truth <= max && min <= est && est <= max) {
				return false
			}
			// After cracking this predicate, the estimate must be exact.
			lo, hi := p.CrackRange(pred)
			_, _, est2 := p.Idx.Estimate(pred.LowerBound(), pred.UpperBound(), p.Len())
			if est2 != hi-lo || est2 != truth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
