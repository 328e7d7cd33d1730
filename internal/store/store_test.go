package store

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPredMatches(t *testing.T) {
	cases := []struct {
		p    Pred
		v    Value
		want bool
	}{
		{Open(10, 20), 10, false},
		{Open(10, 20), 11, true},
		{Open(10, 20), 19, true},
		{Open(10, 20), 20, false},
		{Range(10, 20), 10, true},
		{Range(10, 20), 20, false},
		{Point(7), 7, true},
		{Point(7), 8, false},
		{Pred{10, 20, true, true}, 20, true},
	}
	for _, c := range cases {
		if got := c.p.Matches(c.v); got != c.want {
			t.Errorf("%v.Matches(%d) = %v, want %v", c.p, c.v, got, c.want)
		}
	}
}

func TestPredBounds(t *testing.T) {
	p := Open(10, 20) // 10 < A < 20
	lb, ub := p.LowerBound(), p.UpperBound()
	if lb.V != 10 || lb.Incl {
		t.Errorf("LowerBound of %v = %v, want >10", p, lb)
	}
	if ub.V != 20 || !ub.Incl {
		t.Errorf("UpperBound of %v = %v, want >=20", p, ub)
	}
	q := Range(10, 20) // 10 <= A < 20
	lb, ub = q.LowerBound(), q.UpperBound()
	if lb.V != 10 || !lb.Incl {
		t.Errorf("LowerBound of %v = %v, want >=10", q, lb)
	}
	if ub.V != 20 || !ub.Incl {
		t.Errorf("UpperBound of %v = %v, want >=20", q, ub)
	}
}

func TestRelationBuildAndAccess(t *testing.T) {
	r := Build("R", 5, []string{"A", "B"}, func(attr string, row int) Value {
		if attr == "A" {
			return Value(row)
		}
		return Value(row * 10)
	})
	if r.NumRows() != 5 {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
	if r.Column("A").Vals[3] != 3 || r.Column("B").Vals[3] != 30 {
		t.Fatal("wrong values")
	}
	if r.Column("C") != nil {
		t.Fatal("nonexistent column should be nil")
	}
}

func TestMustColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRelation("R", "A").MustColumn("Z")
}

func TestAppendRows(t *testing.T) {
	r := NewRelation("R", "A", "B")
	r.AppendRow(1, 10)
	r.AppendRow(2, 20)
	r.AppendRow(3, 30)
	if r.NumRows() != 3 {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
	if r.Column("A").Vals[2] != 3 || r.Column("B").Vals[2] != 30 {
		t.Fatal("append broke alignment")
	}
}

func TestSelectCount(t *testing.T) {
	col := NewColumn("A", []Value{5, 1, 9, 3, 7, 2})
	for _, tc := range []struct {
		p    Pred
		want int
	}{{Range(2, 8), 4}, {Open(2, 8), 3}, {Point(9), 1}, {Range(10, 20), 0}} {
		if got := SelectCount(col, tc.p); got != tc.want {
			t.Errorf("SelectCount(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestReconstruct(t *testing.T) {
	col := NewColumn("B", []Value{10, 11, 12, 13})
	got := Reconstruct(col, []int{3, 0, 2})
	if got[0] != 13 || got[1] != 10 || got[2] != 12 {
		t.Fatalf("Reconstruct = %v", got)
	}
}

func TestJoin(t *testing.T) {
	l := []Value{1, 2, 3, 2}
	r := []Value{2, 4, 2}
	pairs := Join(l, r)
	// l[1]=2 matches r[0],r[2]; l[3]=2 matches r[0],r[2].
	if len(pairs) != 4 {
		t.Fatalf("Join produced %d pairs, want 4", len(pairs))
	}
	// Outer (left) order must be preserved.
	for i := 1; i < len(pairs); i++ {
		if pairs[i].L < pairs[i-1].L {
			t.Fatal("Join did not preserve outer order")
		}
	}
}

func TestOrderByStable(t *testing.T) {
	idx := OrderBy([]Value{3, 1, 3, 1})
	want := []int{1, 3, 0, 2}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("OrderBy = %v, want %v", idx, want)
		}
	}
}

func TestAggregates(t *testing.T) {
	vals := []Value{4, -2, 9, 0}
	if m, ok := Max(vals); !ok || m != 9 {
		t.Errorf("Max = %d,%v", m, ok)
	}
	if lo, hi, ok := MinMax(vals); !ok || lo != -2 || hi != 9 {
		t.Errorf("MinMax = %d,%d,%v", lo, hi, ok)
	}
	if _, ok := Max(nil); ok {
		t.Error("Max of empty should report !ok")
	}
	if _, _, ok := MinMax(nil); ok {
		t.Error("MinMax of empty should report !ok")
	}
}

// Property: Reconstruct at the matching positions returns exactly the
// matching values, in insertion order, and SelectCount counts them.
func TestQuickSelectReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = Value(rng.Intn(1000))
		}
		col := NewColumn("A", vals)
		lo := Value(rng.Intn(1000))
		hi := lo + Value(rng.Intn(500))
		p := Range(lo, hi)
		var pos []int
		for i, v := range vals {
			if p.Matches(v) {
				pos = append(pos, i)
			}
		}
		rec := Reconstruct(col, pos)
		if SelectCount(col, p) != len(pos) || len(rec) != len(pos) {
			return false
		}
		for i, v := range rec {
			if v != vals[pos[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Join output size equals the sum over join keys of |L_k|*|R_k|.
func TestQuickJoinCardinality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := make([]Value, rng.Intn(200))
		r := make([]Value, rng.Intn(200))
		for i := range l {
			l[i] = Value(rng.Intn(20))
		}
		for i := range r {
			r[i] = Value(rng.Intn(20))
		}
		lc := map[Value]int{}
		rc := map[Value]int{}
		for _, v := range l {
			lc[v]++
		}
		for _, v := range r {
			rc[v]++
		}
		want := 0
		for k, c := range lc {
			want += c * rc[k]
		}
		return len(Join(l, r)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReconstructOrdered(b *testing.B) {
	vals := make([]Value, 1<<18)
	pos := make([]int, 1<<17)
	for i := range pos {
		pos[i] = i * 2
	}
	col := NewColumn("A", vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reconstruct(col, pos)
	}
}

func BenchmarkReconstructRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]Value, 1<<18)
	pos := make([]int, 1<<17)
	for i := range pos {
		pos[i] = rng.Intn(1 << 18)
	}
	col := NewColumn("A", vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reconstruct(col, pos)
	}
}
