package crack

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// crackRangeTwoPass is the seed kernel: each bound cracks its piece
// independently. Kept as the reference the fused same-piece range crack is
// verified against.
func crackRangeTwoPass(p *Pairs, pred store.Pred) (lo, hi int) {
	lo = p.CrackBound(pred.LowerBound())
	hi = p.CrackBound(pred.UpperBound())
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// boundaries returns the live (bound, position) list of the index.
func boundaries(p *Pairs) []crackindex.Bound {
	var bs []crackindex.Bound
	var ps []int
	p.Idx.Walk(func(b crackindex.Bound, pos int) { bs = append(bs, b); ps = append(ps, pos) })
	out := make([]crackindex.Bound, 0, 2*len(bs))
	for i := range bs {
		out = append(out, bs[i], crackindex.Bound{V: int64(ps[i]), Incl: true})
	}
	return out
}

func sameBoundaries(a, b *Pairs) bool {
	x, y := boundaries(a), boundaries(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// rangeCounts returns the class sizes a range crack of [lo, hi) sees: nL
// tuples left of pred, nM matching it.
func rangeCounts(head []Value, pred store.Pred) (nL, nM int) {
	lower := pred.LowerBound()
	for _, v := range head {
		switch {
		case onLeft(v, lower):
			nL++
		case pred.Matches(v):
			nM++
		}
	}
	return nL, nM
}

// TestCrackRangeColdTraffic is the pass-accounting acceptance test: on a
// cold column whose bounds both fall in the single uncracked piece,
// CrackRange performs exactly one fused range crack and no crack-in-two, and
// its two repair passes read the whole piece once plus the smaller of the
// two possible remainders: Visited == n + min(n-nL, nL+nM).
func TestCrackRangeColdTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 10000
	for _, pred := range []store.Pred{
		store.Range(100, 900), store.Range(10, 30), store.Range(950, 990),
		store.Range(500, 501), store.Range(-5, 2000), store.Point(77),
	} {
		p := randPairs(rng, n, 1000)
		nL, nM := rangeCounts(p.Head, pred)
		lo, hi := p.CrackRange(pred)
		if p.Stats.InThree != 1 || p.Stats.InTwo != 0 {
			t.Fatalf("%v: cold crack used %d range cracks and %d crack-in-two passes, want 1 and 0",
				pred, p.Stats.InThree, p.Stats.InTwo)
		}
		if want := n + min(n-nL, nL+nM); p.Stats.Visited != want {
			t.Fatalf("%v: cold crack visited %d tuples, want n + min(n-nL, nL+nM) = %d",
				pred, p.Stats.Visited, want)
		}
		if lo != nL || hi != nL+nM {
			t.Fatalf("%v: area [%d,%d), want [%d,%d)", pred, lo, hi, nL, nL+nM)
		}
		for i := 0; i < p.Len(); i++ {
			in := i >= lo && i < hi
			if pred.Matches(p.Head[i]) != in {
				t.Fatalf("%v: position %d (val %d): inArea=%v", pred, i, p.Head[i], in)
			}
		}
		if !p.CheckPieces() {
			t.Fatal("piece invariant violated")
		}
	}
}

// TestCrackRangeSamePieceAllocatesNothing: the fused range crack of a 1M-row
// piece works out of repair's two stack-resident position buffers. The
// kernel is called below CrackRange, whose index inserts do allocate; what
// it allocates does not depend on how many tuples are misplaced, so the
// already-partitioned repeat runs measure the same code as the first.
func TestCrackRangeSamePieceAllocatesNothing(t *testing.T) {
	const n = 1 << 20
	p := randPairs(rand.New(rand.NewSource(9)), n, n)
	pred := store.Range(n/4, n/4+n/100)
	allocs := testing.AllocsPerRun(3, func() {
		p.crackRangeInPiece(pred.LowerBound(), pred.UpperBound(), 0, n)
	})
	if allocs != 0 {
		t.Fatalf("same-piece range crack allocated %.0f objects per run, want 0", allocs)
	}
	if p.Stats.InThree == 0 || p.Stats.Moved == 0 {
		t.Fatalf("the measured path was not the fused range crack: %+v", p.Stats)
	}
}

// TestCrackRangeFallsBackAcrossPieces verifies the crack-in-two fallback:
// once a boundary separates the two bounds, CrackRange cracks each piece
// independently.
func TestCrackRangeFallsBackAcrossPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := randPairs(rng, 5000, 1000)
	p.CrackRange(store.Range(400, 600)) // boundaries at 400 and 600
	p.Stats = KernelStats{}
	p.CrackRange(store.Range(300, 700)) // bounds straddle existing boundaries
	if p.Stats.InThree != 0 || p.Stats.InTwo != 2 {
		t.Fatalf("straddling crack used %d in-three / %d in-two passes, want 0 / 2",
			p.Stats.InThree, p.Stats.InTwo)
	}
	if !p.CheckPieces() {
		t.Fatal("piece invariant violated")
	}
}

// TestCrackRangeMatchesTwoPassBoundaries: for any predicate sequence, the
// fused range crack must produce the same areas and the same piece
// boundaries (bound and position) as the two-pass reference, because split
// positions are determined by value counts alone; it must keep every
// (head, tail) pairing; and a second structure with equal heads but other
// tails must end with an identical head column (the alignment invariant of
// Section 3.2), since no kernel decision may read a tail.
func TestCrackRangeMatchesTwoPassBoundaries(t *testing.T) {
	fused := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		a := randPairs(rng, n, 80)
		before := pairSet(a)
		other := make([]Value, n)
		for i := range other {
			other[i] = Value(rng.Int63())
		}
		b := WrapPairs(append([]Value(nil), a.Head...), other)
		r := WrapPairs(append([]Value(nil), a.Head...), make([]Value, n))
		for q := 0; q < 12; q++ {
			pred := randPred(rng, 80)
			alo, ahi := a.CrackRange(pred)
			b.CrackRange(pred)
			rlo, rhi := crackRangeTwoPass(r, pred)
			if alo != rlo || ahi != rhi {
				return false
			}
			if !sameBoundaries(a, r) || !sameBoundaries(a, b) {
				return false
			}
			if !a.CheckPieces() || !r.CheckPieces() {
				return false
			}
			for i := range a.Head {
				if a.Head[i] != b.Head[i] {
					return false
				}
			}
		}
		fused += a.Stats.InThree
		return equalSets(before, pairSet(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if fused == 0 {
		t.Fatal("no seed exercised the fused same-piece range crack")
	}
}

// TestCrackRangeTrafficBound: whatever the index state, a CrackRange that
// takes the fused same-piece path reads, in its two repair passes, the piece
// once plus the smaller remainder — Visited <= n + min(n-nL, nL+nM) for a
// piece of n tuples — and one that falls back reads each bound's own piece
// once.
func TestCrackRangeTrafficBound(t *testing.T) {
	fused := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPairs(rng, 200+rng.Intn(2000), 500)
		for q := 0; q < 8; q++ {
			pred := randPred(rng, 500)
			n := p.Len()
			pc := p.Idx.PieceFor(pred.LowerBound(), n)
			pcHi := p.Idx.PieceFor(pred.UpperBound(), n)
			nL, nM := rangeCounts(p.Head[pc.Lo:pc.Hi], pred)
			before := p.Stats
			p.CrackRange(pred)
			visited := p.Stats.Visited - before.Visited
			if p.Stats.InThree > before.InThree {
				fused++
				sz := pc.Hi - pc.Lo
				if visited > sz+min(sz-nL, nL+nM) {
					return false
				}
			} else if visited > (pc.Hi-pc.Lo)+(pcHi.Hi-pcHi.Lo) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if fused == 0 {
		t.Fatal("no seed exercised the fused same-piece range crack")
	}
}

// TestMovedCounterMatchesAcrossKernels: the predicated and branchy kernels
// execute the same state machine, so their Moved accounting must agree
// exactly (alongside the layouts the fuzz targets pin).
func TestMovedCounterMatchesAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randPairs(rng, 4096, 1024)
	b := WrapPairs(append([]Value(nil), a.Head...), append([]Value(nil), a.Tail...))
	b.Branchy = true
	for q := 0; q < 20; q++ {
		pred := randPred(rng, 1024)
		a.CrackRange(pred)
		b.CrackRange(pred)
		if a.Stats != b.Stats {
			t.Fatalf("stats diverged after query %d: predicated %+v vs branchy %+v", q, a.Stats, b.Stats)
		}
	}
}

// TestRippleInsertBatchMatchesSequential: the batched merge must produce
// exactly the layout of arrival-order sequential RippleInsert calls —
// including tail order — so either form can replay a tape.
func TestRippleInsertBatchMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(300)
		head := make([]Value, n)
		for i := range head {
			head[i] = Value(rng.Int63n(60))
		}
		mkTail := func() []Value {
			tl := make([]Value, n)
			for i := range tl {
				tl[i] = Value(i)
			}
			return tl
		}
		a := WrapPairs(append([]Value(nil), head...), mkTail())
		b := WrapPairs(append([]Value(nil), head...), mkTail())
		for q := 0; q < 6; q++ {
			pred := randPred(rng, 60)
			a.CrackRange(pred)
			b.CrackRange(pred)
		}
		m := 1 + rng.Intn(40)
		vals := make([]Value, m)
		tails := make([]Value, m)
		for i := range vals {
			vals[i] = Value(rng.Int63n(60))
			tails[i] = Value(1000 + i)
		}
		a.RippleInsertBatch(vals, tails)
		for i := range vals {
			b.RippleInsert(vals[i], tails[i])
		}
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if a.Head[i] != b.Head[i] || a.Tail[i] != b.Tail[i] {
				return false
			}
		}
		return sameBoundaries(a, b) && a.CheckPieces() && b.CheckPieces()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRippleInsertBatchEmptyAndColdPaths covers the trivial batch paths.
func TestRippleInsertBatchEmptyAndColdPaths(t *testing.T) {
	p := WrapPairs([]Value{3, 1, 2}, []Value{0, 1, 2})
	p.RippleInsertBatch(nil, nil)
	if p.Len() != 3 {
		t.Fatal("empty batch changed the column")
	}
	// No boundaries: batch appends in arrival order.
	p.RippleInsertBatch([]Value{9, 4}, []Value{10, 11})
	want := []Value{3, 1, 2, 9, 4}
	for i, v := range want {
		if p.Head[i] != v {
			t.Fatalf("cold batch: Head[%d] = %d, want %d", i, p.Head[i], v)
		}
	}
	// Single-element batch delegates to RippleInsert.
	p.CrackRange(store.Range(2, 4))
	p.RippleInsertBatch([]Value{2}, []Value{12})
	if p.Len() != 6 || !p.CheckPieces() {
		t.Fatal("single-element batch broke invariants")
	}
}
