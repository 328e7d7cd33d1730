package crackindex

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBoundLess(t *testing.T) {
	ge5 := Bound{5, true}  // >= 5
	gt5 := Bound{5, false} // > 5
	ge6 := Bound{6, true}
	if !ge5.Less(gt5) {
		t.Error(">=5 must sort before >5")
	}
	if gt5.Less(ge5) {
		t.Error(">5 must not sort before >=5")
	}
	if !gt5.Less(ge6) {
		t.Error(">5 must sort before >=6")
	}
	if ge5.Less(ge5) {
		t.Error("bound must not be less than itself")
	}
}

func TestInsertLookup(t *testing.T) {
	ix := New()
	ix.Insert(Bound{10, true}, 100)
	ix.Insert(Bound{10, false}, 120)
	ix.Insert(Bound{5, true}, 50)
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}
	if ix.Pieces() != 4 {
		t.Fatalf("Pieces = %d, want 4", ix.Pieces())
	}
	for _, tc := range []struct {
		b   Bound
		pos int
	}{{Bound{10, true}, 100}, {Bound{10, false}, 120}, {Bound{5, true}, 50}} {
		got, ok := ix.Lookup(tc.b)
		if !ok || got != tc.pos {
			t.Errorf("Lookup(%v) = %d,%v want %d,true", tc.b, got, ok, tc.pos)
		}
	}
	if _, ok := ix.Lookup(Bound{5, false}); ok {
		t.Error("Lookup of absent boundary succeeded")
	}
}

func TestInsertUpdatesPosition(t *testing.T) {
	ix := New()
	ix.Insert(Bound{7, true}, 10)
	ix.Insert(Bound{7, true}, 20)
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	pos, _ := ix.Lookup(Bound{7, true})
	if pos != 20 {
		t.Fatalf("pos = %d, want 20", pos)
	}
}

func TestPieceForEdges(t *testing.T) {
	ix := New()
	const n = 1000
	p := ix.PieceFor(Bound{50, true}, n)
	if p.Lo != 0 || p.Hi != n || p.HasLoB || p.HasHiB {
		t.Fatalf("empty index piece = %+v", p)
	}
	ix.Insert(Bound{100, true}, 400)
	p = ix.PieceFor(Bound{50, true}, n)
	if p.Lo != 0 || p.Hi != 400 || p.HasLoB || !p.HasHiB {
		t.Fatalf("left piece = %+v", p)
	}
	p = ix.PieceFor(Bound{200, true}, n)
	if p.Lo != 400 || p.Hi != n || !p.HasLoB || p.HasHiB {
		t.Fatalf("right piece = %+v", p)
	}
	p = ix.PieceFor(Bound{100, true}, n)
	if !p.LoExact || p.Lo != 400 || p.Hi != 400 {
		t.Fatalf("exact piece = %+v", p)
	}
	// >100 is a different boundary from >=100 and falls after it.
	p = ix.PieceFor(Bound{100, false}, n)
	if p.LoExact || p.Lo != 400 || p.Hi != n {
		t.Fatalf(">100 piece = %+v", p)
	}
}

func TestWalkOrdered(t *testing.T) {
	ix := New()
	vals := []int64{50, 10, 30, 70, 20}
	for i, v := range vals {
		ix.Insert(Bound{v, true}, i*10)
	}
	var got []int64
	ix.Walk(func(b Bound, pos int) { got = append(got, b.V) })
	want := []int64{10, 20, 30, 50, 70}
	if len(got) != len(want) {
		t.Fatalf("Walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Walk = %v, want %v", got, want)
		}
	}
}

func TestEstimateExactWhenBoundariesExist(t *testing.T) {
	ix := New()
	ix.Insert(Bound{100, false}, 400) // > 100 starts at 400
	ix.Insert(Bound{200, true}, 700)  // >= 200 starts at 700
	// Predicate 100 < v < 200 → lower bound {100,false}, upper {200,true}.
	min, max, est := ix.Estimate(Bound{100, false}, Bound{200, true}, 1000)
	if min != 300 || max != 300 || est != 300 {
		t.Fatalf("Estimate = %d,%d,%d want 300,300,300", min, max, est)
	}
}

func TestEstimateBracketsTruth(t *testing.T) {
	// Build a sorted column conceptually: values 0..999 at positions 0..999.
	// Boundaries at >=250 (pos 250) and >=750 (pos 750).
	ix := New()
	ix.Insert(Bound{250, true}, 250)
	ix.Insert(Bound{750, true}, 750)
	// Predicate 300 <= v < 600: truth = 300 tuples.
	min, max, est := ix.Estimate(Bound{300, true}, Bound{600, true}, 1000)
	if !(min <= 300 && 300 <= max) {
		t.Fatalf("truth 300 outside [%d,%d]", min, max)
	}
	if est < min || est > max {
		t.Fatalf("est %d outside [%d,%d]", est, min, max)
	}
}

// Property: after inserting sorted-column boundaries, PieceFor always returns
// a window that contains the true insertion point.
func TestQuickPieceForContainsTruth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(500)
		// A conceptual sorted column: position i holds value i.
		ix := New()
		inserted := map[int64]bool{}
		for k := 0; k < 20; k++ {
			v := int64(rng.Intn(n))
			if inserted[v] {
				continue
			}
			inserted[v] = true
			ix.Insert(Bound{v, true}, int(v)) // >= v starts at position v
		}
		for k := 0; k < 50; k++ {
			v := int64(rng.Intn(n))
			p := ix.PieceFor(Bound{v, true}, n)
			// True position of boundary >=v in the sorted column is v.
			if p.LoExact {
				if p.Lo != int(v) {
					return false
				}
				continue
			}
			if !(p.Lo <= int(v) && int(v) <= p.Hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Walk yields strictly ascending bounds and ascending positions
// when boundaries are inserted consistently with a sorted column.
func TestQuickWalkMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		vals := rng.Perm(200)
		for _, v := range vals[:50] {
			ix.Insert(Bound{int64(v), true}, v)
		}
		var bs []Bound
		var ps []int
		ix.Walk(func(b Bound, pos int) { bs = append(bs, b); ps = append(ps, pos) })
		if !sort.SliceIsSorted(bs, func(i, j int) bool { return bs[i].Less(bs[j]) }) {
			return false
		}
		return sort.IntsAreSorted(ps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// benchSizes are the boundary counts of the sized benchmarks: a map holds
// a few thousand pieces on the gated workloads.
var benchSizes = []int{1_000, 10_000, 100_000}

// Sinks keep the compiler from dropping a benchmarked call.
var (
	sinkPiece Piece
	sinkIndex *Index
)

// benchIndex returns an index of n distinct random boundaries.
func benchIndex(n int) *Index {
	rng := rand.New(rand.NewSource(1))
	ix := New()
	for ix.Len() < n {
		v := int64(rng.Intn(1 << 30))
		ix.Insert(Bound{v, true}, int(v))
	}
	return ix
}

// BenchmarkInsert adds 100 boundaries to a clone of an index of n. The
// clone is taken outside the timer, so every iteration inserts at the same
// size; ns/insert is the figure to compare.
func BenchmarkInsert(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			base := benchIndex(n)
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ix := base.Clone()
				b.StartTimer()
				for k := 0; k < 100; k++ {
					v := int64(rng.Intn(1 << 30))
					ix.Insert(Bound{v, false}, int(v))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(100*b.N), "ns/insert")
		})
	}
}

func BenchmarkPieceFor(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ix := benchIndex(n)
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkPiece = ix.PieceFor(Bound{int64(rng.Intn(1 << 30)), true}, 1<<30)
			}
		})
	}
}

// BenchmarkClone copies an index of n, as a led chunk copies its span's
// index at its area's first update.
func BenchmarkClone(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ix := benchIndex(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkIndex = ix.Clone()
			}
		})
	}
}

// TestReposition verifies the bulk position update visits every boundary in
// ascending order and matches repeated Insert calls.
func TestReposition(t *testing.T) {
	ix := New()
	for i := 0; i < 50; i++ {
		ix.Insert(Bound{V: int64(i * 2), Incl: i%2 == 0}, i*10)
	}

	// Reference: collect via Walk, shift with Insert.
	ref := New()
	ix.Walk(func(b Bound, pos int) { ref.Insert(b, pos+5) })

	var order []Bound
	ix.Reposition(func(b Bound, pos int) int {
		order = append(order, b)
		return pos + 5
	})
	for i := 1; i < len(order); i++ {
		if !order[i-1].Less(order[i]) {
			t.Fatalf("Reposition order not ascending at %d", i)
		}
	}
	if len(order) != ix.Len() {
		t.Fatalf("Reposition visited %d boundaries, want %d", len(order), ix.Len())
	}
	ix.Walk(func(b Bound, pos int) {
		want, ok := ref.Lookup(b)
		if !ok || want != pos {
			t.Fatalf("boundary %v: pos %d, want %d", b, pos, want)
		}
	})
}

// walked lists the boundaries WalkRange (or Walk) hands its callback.
type walked struct {
	b   Bound
	pos int
}

func walkRange(ix *Index, lo, hi Bound) (out []walked) {
	ix.WalkRange(lo, hi, func(b Bound, pos int) { out = append(out, walked{b, pos}) })
	return out
}

func TestWalkRange(t *testing.T) {
	ix := New()
	for i, b := range []Bound{{10, true}, {10, false}, {20, true}, {30, true}, {40, true}, {50, false}} {
		ix.Insert(b, 10*(i+1))
	}
	lowest, highest := Bound{-1 << 63, true}, Bound{1<<63 - 1, false}
	for _, tc := range []struct {
		name   string
		lo, hi Bound
		want   []walked
	}{
		{"everything", lowest, highest, []walked{{Bound{10, true}, 10}, {Bound{10, false}, 20}, {Bound{20, true}, 30}, {Bound{30, true}, 40}, {Bound{40, true}, 50}, {Bound{50, false}, 60}}},
		{"bounds at boundaries are excluded", Bound{10, true}, Bound{40, true}, []walked{{Bound{10, false}, 20}, {Bound{20, true}, 30}, {Bound{30, true}, 40}}},
		{"the exclusive twin of a boundary", Bound{10, false}, Bound{50, false}, []walked{{Bound{20, true}, 30}, {Bound{30, true}, 40}, {Bound{40, true}, 50}}},
		{"between boundaries", Bound{11, true}, Bound{45, true}, []walked{{Bound{20, true}, 30}, {Bound{30, true}, 40}, {Bound{40, true}, 50}}},
		{"one boundary inside", Bound{25, true}, Bound{35, true}, []walked{{Bound{30, true}, 40}}},
		{"a boundary at lo", Bound{30, true}, Bound{60, true}, []walked{{Bound{40, true}, 50}, {Bound{50, false}, 60}}},
		{"adjacent bounds", Bound{10, true}, Bound{10, false}, nil},
		{"empty range", Bound{40, true}, Bound{20, true}, nil},
		{"below every boundary", lowest, Bound{10, true}, nil},
		{"above every boundary", Bound{50, false}, highest, nil},
	} {
		if got := walkRange(ix, tc.lo, tc.hi); !slices.Equal(got, tc.want) {
			t.Errorf("%s: WalkRange(%v, %v) = %v, want %v", tc.name, tc.lo, tc.hi, got, tc.want)
		}
	}
	if got := walkRange(New(), lowest, highest); got != nil {
		t.Errorf("empty index walked %v", got)
	}
}

// Property: WalkRange visits exactly the boundaries Walk visits
// strictly between lo and hi, in order.
func TestQuickWalkRangeMatchesWalk(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		for i := 0; i < 60; i++ {
			ix.Insert(Bound{rng.Int63n(40), rng.Intn(2) == 0}, i)
		}
		lo, hi := Bound{rng.Int63n(44) - 2, rng.Intn(2) == 0}, Bound{rng.Int63n(44) - 2, rng.Intn(2) == 0}
		var want []walked
		ix.Walk(func(b Bound, pos int) {
			if lo.Less(b) && b.Less(hi) {
				want = append(want, walked{b, pos})
			}
		})
		return slices.Equal(walkRange(ix, lo, hi), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	all := func(ix *Index) (out []walked) {
		ix.Walk(func(b Bound, pos int) { out = append(out, walked{b, pos}) })
		return out
	}
	for _, tc := range []struct {
		name   string
		bounds []Bound
	}{
		{"empty", nil},
		{"one boundary", []Bound{{5, true}}},
		{"several boundaries", []Bound{{1, true}, {3, false}, {5, true}, {7, true}, {9, false}}},
	} {
		ix := New()
		for i, b := range tc.bounds {
			ix.Insert(b, i)
		}
		c := ix.Clone()
		if c.Len() != ix.Len() || !slices.Equal(all(c), all(ix)) {
			t.Fatalf("%s: clone walks %v (len %d), original %v (len %d)", tc.name, all(c), c.Len(), all(ix), ix.Len())
		}
		before := all(ix)
		// Moving and adding boundaries in the clone must leave the original
		// untouched.
		for _, b := range tc.bounds {
			c.Insert(b, 100)
		}
		c.Insert(Bound{6, false}, 50)
		c.Reposition(func(_ Bound, pos int) int { return pos + 1 })
		if got := all(ix); !slices.Equal(got, before) || ix.Len() != len(before) {
			t.Fatalf("%s: changing the clone changed the original: %v, was %v", tc.name, got, before)
		}
		// And the other way round.
		ix.Insert(Bound{-5, true}, 0)
		if c.Has(Bound{-5, true}) {
			t.Fatalf("%s: a boundary added to the original appeared in the clone", tc.name)
		}
	}
}

// model is a sorted slice of boundaries over a sorted column of small
// values: the reference TestQuickModel checks an Index against.
type model struct {
	col    []int64  // ascending; boundaries sit at their true positions in it
	bounds []walked // ascending by bound
}

// truePos is where boundary b partitions m.col: the number of values on
// its left.
func (m *model) truePos(b Bound) int {
	return sort.Search(len(m.col), func(i int) bool {
		return m.col[i] > b.V || (b.Incl && m.col[i] == b.V)
	})
}

func (m *model) find(b Bound) (int, bool) {
	return slices.BinarySearchFunc(m.bounds, b, func(w walked, b Bound) int {
		switch {
		case w.b.Less(b):
			return -1
		case b.Less(w.b):
			return 1
		}
		return 0
	})
}

func (m *model) insert(b Bound) {
	i, ok := m.find(b)
	if ok {
		m.bounds[i].pos = m.truePos(b)
		return
	}
	m.bounds = slices.Insert(m.bounds, i, walked{b, m.truePos(b)})
}

// pieceFor is PieceFor read off the sorted slice.
func (m *model) pieceFor(b Bound) Piece {
	i, ok := m.find(b)
	if ok {
		pos := m.bounds[i].pos
		return Piece{Lo: pos, Hi: pos, LoBound: b, HiBound: b, HasLoB: true, HasHiB: true, LoExact: true}
	}
	p := Piece{Lo: 0, Hi: len(m.col)}
	if i > 0 {
		p.Lo, p.LoBound, p.HasLoB = m.bounds[i-1].pos, m.bounds[i-1].b, true
	}
	if i < len(m.bounds) {
		p.Hi, p.HiBound, p.HasHiB = m.bounds[i].pos, m.bounds[i].b, true
	}
	return p
}

// Property: under random Inserts, re-inserts of an existing bound after the
// column moved under it, and Repositions, the index answers every read
// exactly as a sorted slice does; a Clone follows its own history only; and
// Estimate's min and max bracket the true count of the column the
// boundaries partition.
func TestQuickModel(t *testing.T) {
	randBound := func(rng *rand.Rand) Bound { return Bound{rng.Int63n(36) - 2, rng.Intn(2) == 0} }
	agree := func(ix *Index, m *model, rng *rand.Rand) error {
		if ix.Len() != len(m.bounds) || ix.Pieces() != len(m.bounds)+1 {
			return fmt.Errorf("Len %d, model %d", ix.Len(), len(m.bounds))
		}
		var all []walked
		ix.Walk(func(b Bound, pos int) { all = append(all, walked{b, pos}) })
		if !slices.Equal(all, m.bounds) {
			return fmt.Errorf("Walk %v, model %v", all, m.bounds)
		}
		for k := 0; k < 8; k++ {
			b := randBound(rng)
			if k%2 == 0 && len(m.bounds) > 0 {
				b = m.bounds[rng.Intn(len(m.bounds))].b
			}
			i, ok := m.find(b)
			pos, got := ix.Lookup(b)
			if got != ok || ix.Has(b) != ok || (ok && pos != m.bounds[i].pos) {
				return fmt.Errorf("Lookup(%v) = %d,%v, model has it: %v", b, pos, got, ok)
			}
			if p, want := ix.PieceFor(b, len(m.col)), m.pieceFor(b); p != want {
				return fmt.Errorf("PieceFor(%v) = %+v, model %+v", b, p, want)
			}
			lo, hi := randBound(rng), randBound(rng)
			var want []walked
			for _, w := range m.bounds {
				if lo.Less(w.b) && w.b.Less(hi) {
					want = append(want, w)
				}
			}
			if got := walkRange(ix, lo, hi); !slices.Equal(got, want) {
				return fmt.Errorf("WalkRange(%v, %v) = %v, model %v", lo, hi, got, want)
			}
			truth := max(0, m.truePos(hi)-m.truePos(lo))
			if mn, mx, est := ix.Estimate(lo, hi, len(m.col)); mn > truth || truth > mx || est < mn || est > mx {
				return fmt.Errorf("Estimate(%v, %v) = %d,%d,%d, truth %d", lo, hi, mn, mx, est, truth)
			}
		}
		return nil
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &model{}
		for i := 0; i < 40+rng.Intn(80); i++ {
			m.col = append(m.col, rng.Int63n(32))
		}
		slices.Sort(m.col)
		ix := New()
		var clone *Index
		var cloned model
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(8); {
			case op < 5:
				b := randBound(rng)
				if op == 0 && len(m.bounds) > 0 { // an existing bound, unmoved
					b = m.bounds[rng.Intn(len(m.bounds))].b
				}
				ix.Insert(b, m.truePos(b))
				m.insert(b)
			default:
				// The column grows or shrinks under the boundaries; move
				// them to their new positions one Insert at a time, or in
				// one Reposition.
				if v := rng.Int63n(32); rng.Intn(2) == 0 || len(m.col) == 0 {
					i, _ := slices.BinarySearch(m.col, v)
					m.col = slices.Insert(m.col, i, v)
				} else {
					i := rng.Intn(len(m.col))
					m.col = slices.Delete(m.col, i, i+1)
				}
				if op == 5 {
					for _, w := range m.bounds {
						ix.Insert(w.b, m.truePos(w.b))
					}
				} else {
					var order []Bound
					ix.Reposition(func(b Bound, _ int) int {
						order = append(order, b)
						return m.truePos(b)
					})
					if !slices.IsSortedFunc(order, func(a, b Bound) int {
						if a.Less(b) {
							return -1
						}
						return 1
					}) || len(order) != len(m.bounds) {
						t.Logf("seed %d step %d: Reposition visited %v", seed, step, order)
						return false
					}
				}
				for i := range m.bounds {
					m.bounds[i].pos = m.truePos(m.bounds[i].b)
				}
			}
			if step == 30 {
				clone = ix.Clone()
				cloned = model{col: slices.Clone(m.col), bounds: slices.Clone(m.bounds)}
			}
			if err := agree(ix, m, rng); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		// The clone kept the boundaries of step 30 through every later
		// change of the original, and changing it leaves the original be.
		if err := agree(clone, &cloned, rng); err != nil {
			t.Logf("seed %d: clone: %v", seed, err)
			return false
		}
		for range 10 {
			b := randBound(rng)
			clone.Insert(b, cloned.truePos(b))
			cloned.insert(b)
		}
		clone.Reposition(func(_ Bound, pos int) int { return pos + 1 })
		if err := agree(ix, m, rng); err != nil {
			t.Logf("seed %d: original after changing the clone: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
