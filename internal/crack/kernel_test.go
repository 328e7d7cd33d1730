package crack

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// crackRangeTwoPass is the seed kernel: each bound cracks its piece
// independently. Kept as the reference the same-piece range crack is
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

// twoPointer is the textbook two-pointer (Hoare) partition, the reference
// the block partition must match in layout, split and moves: cursor i
// scans right for a tuple >= c, cursor j scans left for one < c, and the
// two stalls swap until the cursors cross.
func twoPointer(p *Pairs, c Value, lo, hi int) int {
	h := p.Head
	i, j := lo, hi-1
	for {
		for i <= j && h[i] < c {
			i++
		}
		for i <= j && h[j] >= c {
			j--
		}
		if i > j {
			return i
		}
		p.swap([]int{i}, []int{j})
		i++
		j--
	}
}

// TestBlockPartitionMatchesTwoPointer partitions pieces of every size up to
// a few blocks, in shapes that stress each end of the block kernel (all on
// one side, sorted, reverse sorted, few distinct values, random), at cutoffs
// below, inside and above the values, and requires the two-pointer
// reference's layout, split and moves.
func TestBlockPartitionMatchesTwoPointer(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shapes := map[string]func(i, n int) Value{
		"sorted":   func(i, n int) Value { return Value(i) },
		"reversed": func(i, n int) Value { return Value(n - i) },
		"two":      func(i, n int) Value { return Value(rng.Intn(2)) * Value(n) },
		"random":   func(i, n int) Value { return Value(rng.Intn(n + 1)) },
		"clumped":  func(i, n int) Value { return Value((i / 300) % 2 * n) },
	}
	for name, shape := range shapes {
		for n := 0; n <= 4*predBlock+3; n += 1 + n/50 {
			head := make([]Value, n)
			for i := range head {
				head[i] = shape(i, n)
			}
			for _, c := range []Value{-1, 0, 1, Value(n / 3), Value(n / 2), Value(n), Value(n + 1)} {
				a := WrapPairs(slices.Clone(head), make([]Value, n))
				for i := range a.Tail {
					a.Tail[i] = Value(i)
				}
				b := WrapPairs(slices.Clone(a.Head), slices.Clone(a.Tail))
				lo, hi := min(n, 3), n
				if got, want := a.blockPartition(c, lo, hi), twoPointer(b, c, lo, hi); got != want ||
					!slices.Equal(a.Head, b.Head) || !slices.Equal(a.Tail, b.Tail) || a.Stats != b.Stats {
					t.Fatalf("%s n=%d c=%d: split %d vs %d, moved %d vs %d", name, n, c, got, want, a.Stats.Moved, b.Stats.Moved)
				}
			}
		}
	}
}

// lowerFirst is the order rule of a same-piece range crack, restated from
// its definition: partition at the lower cutoff c1 first when, among the
// head values at positions 0, step, ..., 63·step (step = n/64; every value
// of a piece under 64), at most as many lie at or right of c1 as lie left
// of c2.
func lowerFirst(head []Value, c1, c2 Value) bool {
	s, step := min(len(head), 64), max(len(head)/64, 1)
	right1, left2 := 0, 0
	for k := 0; k < s; k++ {
		v := head[k*step]
		if v >= c1 {
			right1++
		}
		if v < c2 {
			left2++
		}
	}
	return right1 <= left2
}

// rangeTraffic is the number of tuples a same-piece range crack of head
// visits: the piece, then the remainder its order rule leaves.
func rangeTraffic(head []Value, pred store.Pred) int {
	nL, nM := rangeCounts(head, pred)
	c1, _ := cut(pred.LowerBound())
	c2, _ := cut(pred.UpperBound())
	if lowerFirst(head, c1, c2) {
		return 2*len(head) - nL
	}
	return len(head) + nL + nM
}

// TestCrackRangeColdTraffic is the pass-accounting acceptance test: on a
// cold column whose bounds both fall in the single uncracked piece,
// CrackRange performs exactly one same-piece range crack and no
// crack-in-two, and its two partitions read the whole piece once plus the
// remainder the order rule picks: n + (n-nL) or n + (nL+nM). Where the two
// remainders differ by a tenth of the piece, the rule picks the smaller.
func TestCrackRangeColdTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 10000
	for _, pred := range []store.Pred{
		store.Range(100, 900), store.Range(10, 30), store.Range(950, 990),
		store.Range(500, 501), store.Range(-5, 2000), store.Point(77),
	} {
		p := randPairs(rng, n, 1000)
		nL, nM := rangeCounts(p.Head, pred)
		want := rangeTraffic(p.Head, pred)
		lo, hi := p.CrackRange(pred)
		if p.Stats.InThree != 1 || p.Stats.InTwo != 0 {
			t.Fatalf("%v: cold crack used %d range cracks and %d crack-in-two passes, want 1 and 0",
				pred, p.Stats.InThree, p.Stats.InTwo)
		}
		if p.Stats.Visited != want {
			t.Fatalf("%v: cold crack visited %d tuples, want %d", pred, p.Stats.Visited, want)
		}
		if a, b := n-nL, nL+nM; abs(a-b) > n/10 && want != n+min(a, b) {
			t.Fatalf("%v: the order rule left the larger remainder: visited %d, remainders %d and %d",
				pred, want, a, b)
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

func abs(x int) int { return max(x, -x) }

// misplaced counts the tuples of head on the wrong side of the split a
// partition at c leaves: the values >= c among the first count(< c).
func misplaced(head []Value, c Value) int {
	split := 0
	for _, v := range head {
		if v < c {
			split++
		}
	}
	m := 0
	for _, v := range head[:split] {
		if v >= c {
			m++
		}
	}
	return m
}

// TestPartitionTraffic pins what every partition costs, whatever its
// layout: it visits exactly hi-lo tuples and moves exactly twice the tuples
// on the wrong side of its split. It records every partition of a
// crack-in-two, a same-piece range crack and a policy pivot, and checks the
// partitions each makes: the piece, then for the range crack the remainder
// its order rule picks.
func TestPartitionTraffic(t *testing.T) {
	type part struct{ lo, hi int }
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		name  string
		pol   Policy
		crack func(p *Pairs)
		want  func(head []Value) []part
	}{
		{"in-two", Policy{}, func(p *Pairs) { p.CrackBound(crackindex.Bound{V: 300, Incl: true}) },
			func(head []Value) []part { return []part{{0, len(head)}} }},
		{"range", Policy{}, func(p *Pairs) { p.CrackRange(store.Range(200, 260)) },
			func(head []Value) []part {
				pred := store.Range(200, 260)
				nL, nM := rangeCounts(head, pred)
				c1, _ := cut(pred.LowerBound())
				c2, _ := cut(pred.UpperBound())
				if lowerFirst(head, c1, c2) {
					return []part{{0, len(head)}, {nL, len(head)}}
				}
				return []part{{0, len(head)}, {0, nL + nM}}
			}},
		{"pivot", Policy{Kind: Capped, Cap: 3000}, func(p *Pairs) { p.CrackBound(crackindex.Bound{V: 10, Incl: true}) },
			func(head []Value) []part { return []part{{0, len(head)}} }},
	} {
		for _, n := range []int{1, 7, 255, 256, 257, 513, 5000} {
			p := randPairs(rng, n, 1000)
			p.Policy = tc.pol
			want := tc.want(p.Head)
			var got []part
			p.kernel = func(p *Pairs, c Value, lo, hi int) int {
				got = append(got, part{lo, hi})
				m, moved := misplaced(p.Head[lo:hi], c), p.Stats.Moved
				split := p.blockPartition(c, lo, hi)
				if p.Stats.Moved-moved != 2*m {
					t.Fatalf("%s n=%d: partition of [%d,%d) moved %d tuples, want 2 x %d misplaced",
						tc.name, n, lo, hi, p.Stats.Moved-moved, m)
				}
				return split
			}
			tc.crack(p)
			visited := 0
			for _, g := range got {
				visited += g.hi - g.lo
			}
			if p.Stats.Visited != visited {
				t.Fatalf("%s n=%d: partitions %v, but %d tuples visited", tc.name, n, got, p.Stats.Visited)
			}
			if tc.name == "pivot" && n > 3000 {
				// The piece is split at the pivot first; the query's own
				// bound then cracks whichever part it falls into.
				if p.Stats.Aux != 1 || len(got) != 2 {
					t.Fatalf("pivot n=%d: %d auxiliary pivots, partitions %v", n, p.Stats.Aux, got)
				}
				got = got[:1]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: partitions %v, want %v", tc.name, n, got, want)
			}
		}
	}
}

// TestCrackRangeSamePieceAllocatesNothing: the same-piece range crack of a
// 1M-row piece works out of the partition's two stack-resident position
// buffers. The kernel is called below CrackRange, whose index inserts do
// allocate; what it allocates does not depend on how many tuples are
// misplaced, so the already-partitioned repeat runs measure the same code
// as the first.
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
		t.Fatalf("the measured path was not the same-piece range crack: %+v", p.Stats)
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

// TestCrackRangeEdgeBoundCutsOnce: a bound at an edge of the value domain
// lies at the start or the end of the pairs, so a range with one such bound
// is one crack in two at its other bound: one partition over the cold
// column, one boundary, and the layout that crack alone leaves.
func TestCrackRangeEdgeBoundCutsOnce(t *testing.T) {
	for _, c := range []struct {
		name  string
		pred  store.Pred
		lower bool // the cut is the lower bound; the upper is an edge
	}{
		{"A >= 500", store.Pred{Lo: 500, Hi: math.MaxInt64, LoIncl: true, HiIncl: true}, true},
		{"MinInt64 <= A < 500", store.Pred{Lo: math.MinInt64, Hi: 500, LoIncl: true}, false},
	} {
		cut := crackindex.Bound{V: 500, Incl: true}
		p := randPairs(rand.New(rand.NewSource(8)), 1000, 1000)
		ref := WrapPairs(slices.Clone(p.Head), slices.Clone(p.Tail))
		at := ref.CrackBound(cut)
		lo, hi := p.CrackRange(c.pred)
		if want := (KernelStats{InTwo: 1, Visited: 1000, Moved: ref.Stats.Moved}); p.Stats != want {
			t.Errorf("%s: stats %+v, want %+v", c.name, p.Stats, want)
		}
		if want := []crackindex.Bound{cut, {V: int64(at), Incl: true}}; !slices.Equal(boundaries(p), want) {
			t.Errorf("%s: boundaries %v, want %v", c.name, boundaries(p), want)
		}
		wantLo, wantHi := 0, at
		if c.lower {
			wantLo, wantHi = at, 1000
		}
		if lo != wantLo || hi != wantHi {
			t.Errorf("%s: area [%d, %d), want [%d, %d)", c.name, lo, hi, wantLo, wantHi)
		}
		if !slices.Equal(p.Head, ref.Head) || !slices.Equal(p.Tail, ref.Tail) {
			t.Errorf("%s: layout differs from one crack at %v", c.name, cut)
		}
	}
}

// TestCrackRangeMatchesTwoPassBoundaries: for any predicate sequence, the
// same-piece range crack must produce the same areas and the same piece
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
		t.Fatal("no seed exercised the same-piece range crack")
	}
}

// TestCrackRangeTrafficBound: whatever the index state, a CrackRange that
// takes the same-piece path visits the piece once plus the remainder its
// order rule picks, and one that falls back visits exactly the piece each
// bound cracks in two: the lower bound's piece unless the bound is already
// a boundary, then the piece the upper bound falls into after that.
func TestCrackRangeTrafficBound(t *testing.T) {
	fused := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPairs(rng, 200+rng.Intn(2000), 500)
		for q := 0; q < 8; q++ {
			pred := randPred(rng, 500)
			b1, b2 := pred.LowerBound(), pred.UpperBound()
			n := p.Len()
			pc := p.Idx.PieceFor(b1, n)
			crack2 := b2 != b1 && !p.Idx.Has(b2)
			inPiece := rangeTraffic(p.Head[pc.Lo:pc.Hi], pred)
			before := p.Stats
			p.CrackRange(pred)
			visited := p.Stats.Visited - before.Visited
			var want int
			if p.Stats.InThree > before.InThree {
				fused++
				want = inPiece
			} else {
				if !pc.LoExact {
					want = pc.Hi - pc.Lo
				}
				if crack2 {
					// The upper bound cracks last, so the index the query
					// leaves shows the piece it split.
					want += crackedPiece(p, b2)
				}
			}
			if visited != want {
				t.Logf("seed %d query %d %v: visited %d, want %d", seed, q, pred, visited, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if fused == 0 {
		t.Fatal("no seed exercised the same-piece range crack")
	}
}

// crackedPiece returns the size of the piece a crack at b split in two,
// read from the index the crack left: from the boundary before b to the
// boundary after it.
func crackedPiece(p *Pairs, b crackindex.Bound) int {
	lo, hi, after := 0, p.Len(), false
	p.Idx.Walk(func(x crackindex.Bound, pos int) {
		if x.Less(b) {
			lo = pos
		} else if b.Less(x) && !after {
			hi, after = pos, true
		}
	})
	return hi - lo
}

// TestMovedCounterMatchesAcrossKernels: the block partition and the
// two-pointer reference pair the same misplaced tuples, so their stats must
// agree exactly (alongside the layouts the fuzz targets pin).
func TestMovedCounterMatchesAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randPairs(rng, 4096, 1024)
	b := WrapPairs(append([]Value(nil), a.Head...), append([]Value(nil), a.Tail...))
	b.kernel = twoPointer
	for q := 0; q < 20; q++ {
		pred := randPred(rng, 1024)
		a.CrackRange(pred)
		b.CrackRange(pred)
		if a.Stats != b.Stats {
			t.Fatalf("stats diverged after query %d: block %+v vs two-pointer %+v", q, a.Stats, b.Stats)
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
	// A single-element batch runs the batch kernel like any other.
	p.CrackRange(store.Range(2, 4))
	p.RippleInsertBatch([]Value{2}, []Value{12})
	if p.Len() != 6 || !p.CheckPieces() {
		t.Fatal("single-element batch broke invariants")
	}
}
