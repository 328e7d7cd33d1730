package sideways

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"crackstore/internal/store"
)

func TestMaxMinAttrNoMaps(t *testing.T) {
	rel := store.NewRelation("R", "A", "B")
	rel.AppendRow(5, 1)
	rel.AppendRow(9, 2)
	rel.AppendRow(2, 3)
	s := NewStore(rel)
	if m, ok := s.MaxAttr("A"); !ok || m != 9 {
		t.Fatalf("MaxAttr = %d,%v", m, ok)
	}
	if m, ok := s.MinAttr("A"); !ok || m != 2 {
		t.Fatalf("MinAttr = %d,%v", m, ok)
	}
}

func TestMaxAttrUsesLastPiece(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := buildRel(rng, 2000, []string{"A", "B"}, 10000)
	s := NewStore(rel)
	// Crack the map so pieces exist.
	s.SelectProject("A", store.Range(2000, 4000), []string{"B"})
	s.SelectProject("A", store.Range(7000, 9000), []string{"B"})
	tmin, truth, _ := store.MinMax(rel.MustColumn("A").Vals)
	if m, ok := s.MaxAttr("A"); !ok || m != truth {
		t.Fatalf("MaxAttr = %d, want %d", m, truth)
	}
	if m, ok := s.MinAttr("A"); !ok || m != tmin {
		t.Fatalf("MinAttr = %d, want %d", m, tmin)
	}
}

func TestMaxAttrWithUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := buildRel(rng, 500, []string{"A", "B"}, 1000)
	s := NewStore(rel)
	s.SelectProject("A", store.Range(100, 900), []string{"B"})
	// Insert a new global maximum; it must be visible via pending merge.
	s.Insert(5000, 1)
	if m, ok := s.MaxAttr("A"); !ok || m != 5000 {
		t.Fatalf("MaxAttr after insert = %d, want 5000", m)
	}
	// Delete it again: the max must fall back to the base data.
	key := rel.NumRows() - 1
	s.Delete(key)
	truth := Value(-1)
	for k, v := range rel.MustColumn("A").Vals {
		if k != key && v > truth {
			truth = v
		}
	}
	if m, ok := s.MaxAttr("A"); !ok || m != truth {
		t.Fatalf("MaxAttr after delete = %d, want %d", m, truth)
	}
}

// Property: MaxAttr/MinAttr agree with a scan under random cracking and
// random updates.
func TestQuickExtremesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := buildRel(rng, 300, []string{"A", "B"}, 500)
		s := NewStore(rel)
		dead := map[int]bool{}
		for step := 0; step < 30; step++ {
			switch rng.Intn(5) {
			case 0:
				s.Insert(Value(rng.Int63n(500)), Value(rng.Int63n(500)))
			case 1:
				k := rng.Intn(rel.NumRows())
				if !dead[k] {
					s.Delete(k)
					dead[k] = true
				}
			case 2:
				lo := rng.Int63n(500)
				s.SelectProject("A", store.Range(lo, lo+100), []string{"B"})
			default:
				var want Value
				found := false
				for k, v := range rel.MustColumn("A").Vals {
					if dead[k] {
						continue
					}
					if !found || v > want {
						want, found = v, true
					}
				}
				got, ok := s.MaxAttr("A")
				if ok != found || (found && got != want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func naiveJoinPairs(lrel, rrel *store.Relation, lAttr, rAttr string,
	ldead, rdead map[int]bool) map[[2]Value]int {
	out := map[[2]Value]int{}
	lv := lrel.MustColumn(lAttr).Vals
	rv := rrel.MustColumn(rAttr).Vals
	for i, a := range lv {
		if ldead[i] {
			continue
		}
		for j, b := range rv {
			if rdead[j] {
				continue
			}
			if a == b {
				out[[2]Value{Value(i), Value(j)}]++
			}
		}
	}
	return out
}

func TestCrackerJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lrel := buildRel(rng, 300, []string{"A", "B"}, 100)
	rrel := buildRel(rng, 250, []string{"C", "D"}, 100)
	ls, rs := NewStore(lrel), NewStore(rrel)
	for _, parts := range []int{1, 4, 16} {
		got := CrackerJoin(ls, "A", rs, "C", parts)
		want := naiveJoinPairs(lrel, rrel, "A", "C", nil, nil)
		if len(got) != lenPairs(want) {
			t.Fatalf("parts=%d: %d pairs, want %d", parts, len(got), lenPairs(want))
		}
		for _, p := range got {
			if want[[2]Value{p.LKey, p.RKey}] == 0 {
				t.Fatalf("parts=%d: unexpected pair %v", parts, p)
			}
		}
	}
}

// TestCrackerJoinOnOneBudgetedStore: a self-join of two attributes of one
// budgeted store. The right side's key map can only be made room for by
// evicting the left side's, and the join must still pair what it read.
func TestCrackerJoinOnOneBudgetedStore(t *testing.T) {
	const n = 1000
	attrs := strings.Split("ABCDEFGHIJKLMNOP", "")
	rel := buildRel(rand.New(rand.NewSource(6)), n, attrs, 200)
	s := NewStore(rel)
	// S_A's fifteen maps are one head group, a map and fourteen tails of
	// half a map each (8n tuples): they and one key map fit, two do not.
	s.Budget = 9*n + n/4
	for q := 0; q < 5; q++ {
		s.SelectProject("A", store.Range(Value(q*30), Value(q*30+20)), attrs[1:])
	}
	got := CrackerJoin(s, "B", s, "C", 4)
	want := naiveJoinPairs(rel, rel, "B", "C", nil, nil)
	if len(got) != lenPairs(want) {
		t.Fatalf("%d pairs, want %d", len(got), lenPairs(want))
	}
	for _, p := range got {
		if want[[2]Value{p.LKey, p.RKey}] == 0 {
			t.Fatalf("unexpected pair %v", p)
		}
	}
	if cs := s.ChunkStats(); cs.Evicted == 0 {
		t.Fatalf("the join evicted nothing: %+v", cs)
	}
}

func lenPairs(m map[[2]Value]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

func TestCrackerJoinWithUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lrel := buildRel(rng, 200, []string{"A", "B"}, 60)
	rrel := buildRel(rng, 200, []string{"C", "D"}, 60)
	ls, rs := NewStore(lrel), NewStore(rrel)
	// Touch both stores so updates become pending rather than baked in.
	CrackerJoin(ls, "A", rs, "C", 4)
	ldead, rdead := map[int]bool{}, map[int]bool{}
	for i := 0; i < 20; i++ {
		ls.Insert(Value(rng.Int63n(60)), 0)
		rs.Insert(Value(rng.Int63n(60)), 0)
		lk, rk := rng.Intn(200), rng.Intn(200)
		if !ldead[lk] {
			ls.Delete(lk)
			ldead[lk] = true
		}
		if !rdead[rk] {
			rs.Delete(rk)
			rdead[rk] = true
		}
	}
	got := CrackerJoin(ls, "A", rs, "C", 8)
	want := naiveJoinPairs(lrel, rrel, "A", "C", ldead, rdead)
	if len(got) != lenPairs(want) {
		t.Fatalf("%d pairs, want %d", len(got), lenPairs(want))
	}
	for _, p := range got {
		if want[[2]Value{p.LKey, p.RKey}] == 0 {
			t.Fatalf("unexpected pair %v", p)
		}
	}
}

// Property: CrackerJoin cardinality equals the key-frequency product sum
// for any partition count, and repeated joins (reusing cracked maps) give
// identical results.
func TestQuickCrackerJoin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lrel := buildRel(rng, 150, []string{"A", "B"}, 40)
		rrel := buildRel(rng, 150, []string{"C", "D"}, 40)
		ls, rs := NewStore(lrel), NewStore(rrel)
		lc, rc := map[Value]int{}, map[Value]int{}
		for _, v := range lrel.MustColumn("A").Vals {
			lc[v]++
		}
		for _, v := range rrel.MustColumn("C").Vals {
			rc[v]++
		}
		want := 0
		for k, c := range lc {
			want += c * rc[k]
		}
		parts := 1 + rng.Intn(10)
		first := CrackerJoin(ls, "A", rs, "C", parts)
		second := CrackerJoin(ls, "A", rs, "C", parts)
		if len(first) != want || len(second) != want {
			return false
		}
		canon := func(ps []KeyPair) []KeyPair {
			out := append([]KeyPair(nil), ps...)
			sort.Slice(out, func(i, j int) bool {
				if out[i].LKey != out[j].LKey {
					return out[i].LKey < out[j].LKey
				}
				return out[i].RKey < out[j].RKey
			})
			return out
		}
		a, b := canon(first), canon(second)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCrackerJoinVsHash(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 16
	lrel := store.Build("L", n, []string{"A", "B"}, func(string, int) Value {
		return rng.Int63n(int64(n))
	})
	rrel := store.Build("R", n, []string{"C", "D"}, func(string, int) Value {
		return rng.Int63n(int64(n))
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store.Join(lrel.MustColumn("A").Vals, rrel.MustColumn("C").Vals)
		}
	})
	b.Run("cracker16", func(b *testing.B) {
		ls, rs := NewStore(lrel), NewStore(rrel)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CrackerJoin(ls, "A", rs, "C", 16)
		}
	})
}
