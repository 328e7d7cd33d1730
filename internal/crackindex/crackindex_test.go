package crackindex

import (
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

func TestDeleteAndRevive(t *testing.T) {
	ix := New()
	ix.Insert(Bound{10, true}, 100)
	ix.Insert(Bound{20, true}, 200)
	if !ix.Delete(Bound{10, true}) {
		t.Fatal("Delete failed")
	}
	if ix.Delete(Bound{10, true}) {
		t.Fatal("double Delete succeeded")
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ix.Len())
	}
	if _, ok := ix.Lookup(Bound{10, true}); ok {
		t.Fatal("deleted boundary still visible")
	}
	// Piece lookup must see through the deleted node.
	p := ix.PieceFor(Bound{10, true}, 1000)
	if p.Lo != 0 || p.Hi != 200 {
		t.Fatalf("piece across deleted node = %+v", p)
	}
	// Revive with a new position.
	ix.Insert(Bound{10, true}, 111)
	pos, ok := ix.Lookup(Bound{10, true})
	if !ok || pos != 111 {
		t.Fatalf("revived = %d,%v", pos, ok)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
}

func TestWalkOrdered(t *testing.T) {
	ix := New()
	vals := []int64{50, 10, 30, 70, 20}
	for i, v := range vals {
		ix.Insert(Bound{v, true}, i*10)
	}
	ix.Delete(Bound{30, true})
	var got []int64
	ix.Walk(func(b Bound, pos int) { got = append(got, b.V) })
	want := []int64{10, 20, 50, 70}
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

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix := New()
		for k := 0; k < 100; k++ {
			ix.Insert(Bound{int64(rng.Intn(1 << 20)), true}, k)
		}
	}
}

func BenchmarkPieceFor(b *testing.B) {
	ix := New()
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 1000; k++ {
		v := int64(rng.Intn(1 << 20))
		ix.Insert(Bound{v, true}, int(v))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.PieceFor(Bound{int64(rng.Intn(1 << 20)), true}, 1<<20)
	}
}

// TestReposition verifies the bulk position update visits live boundaries in
// ascending order, skips deleted ones, and matches repeated Insert calls.
func TestReposition(t *testing.T) {
	ix := New()
	var bounds []Bound
	for i := 0; i < 50; i++ {
		b := Bound{V: int64(i * 2), Incl: i%2 == 0}
		bounds = append(bounds, b)
		ix.Insert(b, i*10)
	}
	ix.Delete(bounds[7])
	ix.Delete(bounds[23])

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
		t.Fatalf("Reposition visited %d boundaries, want %d live", len(order), ix.Len())
	}
	ix.Walk(func(b Bound, pos int) {
		want, ok := ref.Lookup(b)
		if !ok || want != pos {
			t.Fatalf("boundary %v: pos %d, want %d", b, pos, want)
		}
	})
	// Deleted boundaries must remain deleted and untouched by Reposition.
	if _, ok := ix.Lookup(bounds[7]); ok {
		t.Fatal("deleted boundary revived by Reposition")
	}
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
	ix.Delete(Bound{30, true}) // lazily deleted: never visited, still a tree node
	lowest, highest := Bound{-1 << 63, true}, Bound{1<<63 - 1, false}
	for _, tc := range []struct {
		name   string
		lo, hi Bound
		want   []walked
	}{
		{"everything", lowest, highest, []walked{{Bound{10, true}, 10}, {Bound{10, false}, 20}, {Bound{20, true}, 30}, {Bound{40, true}, 50}, {Bound{50, false}, 60}}},
		{"bounds at boundaries are excluded", Bound{10, true}, Bound{40, true}, []walked{{Bound{10, false}, 20}, {Bound{20, true}, 30}}},
		{"the exclusive twin of a boundary", Bound{10, false}, Bound{50, false}, []walked{{Bound{20, true}, 30}, {Bound{40, true}, 50}}},
		{"between boundaries", Bound{11, true}, Bound{45, true}, []walked{{Bound{20, true}, 30}, {Bound{40, true}, 50}}},
		{"only a deleted node inside", Bound{25, true}, Bound{35, true}, nil},
		{"a deleted node at lo", Bound{30, true}, Bound{60, true}, []walked{{Bound{40, true}, 50}, {Bound{50, false}, 60}}},
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

// Property: WalkRange visits exactly the live boundaries Walk visits
// strictly between lo and hi, in order.
func TestQuickWalkRangeMatchesWalk(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		for i := 0; i < 60; i++ {
			b := Bound{rng.Int63n(40), rng.Intn(2) == 0}
			if rng.Intn(4) == 0 {
				ix.Delete(b)
			} else {
				ix.Insert(b, i)
			}
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
		name    string
		live    []Bound
		deleted []Bound
	}{
		{"empty", nil, nil},
		{"one boundary", []Bound{{5, true}}, nil},
		{"boundaries and deleted nodes", []Bound{{1, true}, {3, false}, {5, true}, {7, true}, {9, false}}, []Bound{{3, false}, {7, true}}},
		{"only deleted nodes", []Bound{{2, true}, {4, true}}, []Bound{{2, true}, {4, true}}},
	} {
		ix := New()
		for i, b := range tc.live {
			ix.Insert(b, i)
		}
		for _, b := range tc.deleted {
			ix.Delete(b)
		}
		c := ix.Clone()
		if c.Len() != ix.Len() || !slices.Equal(all(c), all(ix)) {
			t.Fatalf("%s: clone walks %v (len %d), original %v (len %d)", tc.name, all(c), c.Len(), all(ix), ix.Len())
		}
		before := all(ix)
		// Reviving a deleted node, deleting a live one, moving and adding
		// boundaries in the clone must leave the original untouched.
		for _, b := range tc.deleted {
			c.Insert(b, 100)
		}
		for _, b := range tc.live {
			if !slices.Contains(tc.deleted, b) {
				c.Delete(b)
				break
			}
		}
		c.Insert(Bound{6, false}, 50)
		c.Reposition(func(_ Bound, pos int) int { return pos + 1 })
		if got := all(ix); !slices.Equal(got, before) || ix.Len() != len(before) {
			t.Fatalf("%s: changing the clone changed the original: %v, was %v", tc.name, got, before)
		}
		for _, b := range tc.deleted {
			if ix.Has(b) {
				t.Fatalf("%s: reviving %v in the clone revived it in the original", tc.name, b)
			}
		}
		// And the other way round.
		ix.Insert(Bound{-5, true}, 0)
		if c.Has(Bound{-5, true}) {
			t.Fatalf("%s: a boundary added to the original appeared in the clone", tc.name)
		}
	}
}
