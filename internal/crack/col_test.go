package crack

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"crackstore/internal/store"
)

// model is a naive reference implementation: key -> value, mutated eagerly.
type model struct {
	vals map[int]Value
}

func (m *model) selectKeys(pred store.Pred) []int {
	var out []int
	for k, v := range m.vals {
		if pred.Matches(v) {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

func sortedKeys(view []Value) []int {
	out := make([]int, len(view))
	for i, k := range view {
		out[i] = int(k)
	}
	sort.Ints(out)
	return out
}

func TestColSelectMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 1000
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = Value(rng.Int63n(500))
	}
	base := store.NewColumn("A", vals)
	c := NewCol(base)
	m := &model{vals: map[int]Value{}}
	for i, v := range vals {
		m.vals[i] = v
	}
	for q := 0; q < 50; q++ {
		pred := randPred(rng, 500)
		got := sortedKeys(c.Select(pred))
		want := m.selectKeys(pred)
		if len(got) != len(want) {
			t.Fatalf("query %d %v: got %d keys, want %d", q, pred, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d %v: key mismatch at %d: %d vs %d", q, pred, i, got[i], want[i])
			}
		}
	}
}

func TestColInsertVisibleAfterMerge(t *testing.T) {
	base := store.NewColumn("A", []Value{10, 20, 30})
	c := NewCol(base)
	c.Insert(3, 25)
	if c.PendingInsertions() != 1 {
		t.Fatalf("pending = %d", c.PendingInsertions())
	}
	// A query not touching value 25 must not merge it.
	c.Select(store.Range(100, 200))
	if c.PendingInsertions() != 1 {
		t.Fatal("insert merged by unrelated query")
	}
	// A query touching it must merge and return it.
	keys := sortedKeys(c.Select(store.Range(20, 30)))
	if c.PendingInsertions() != 0 {
		t.Fatal("insert not merged")
	}
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 3 {
		t.Fatalf("keys = %v, want [1 3]", keys)
	}
}

func TestColDeleteHidesTuple(t *testing.T) {
	base := store.NewColumn("A", []Value{10, 20, 30, 20})
	c := NewCol(base)
	c.Delete(1)
	keys := sortedKeys(c.Select(store.Point(20)))
	if len(keys) != 1 || keys[0] != 3 {
		t.Fatalf("keys = %v, want [3]", keys)
	}
	if c.PendingDeletions() != 0 {
		t.Fatal("delete not merged by covering query")
	}
}

func TestColDeleteCancelsPendingInsert(t *testing.T) {
	base := store.NewColumn("A", []Value{10})
	c := NewCol(base)
	c.Insert(1, 50)
	c.Delete(1)
	if c.PendingInsertions() != 0 || c.PendingDeletions() != 0 {
		t.Fatal("delete of pending insert should cancel both")
	}
	if got := c.Select(store.Point(50)); len(got) != 0 {
		t.Fatalf("cancelled tuple visible: %v", got)
	}
}

func TestColUpdateAsDeletePlusInsert(t *testing.T) {
	// An update is modeled as delete(old key) + insert(fresh key), per
	// Section 3.5 ("an update is merely translated into a deletion and an
	// insertion").
	base := store.NewColumn("A", []Value{10, 20})
	c := NewCol(base)
	c.Delete(0)
	c.Insert(2, 99)
	keys := sortedKeys(c.Select(store.Range(0, 1000)))
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 2 {
		t.Fatalf("keys = %v, want [1 2]", keys)
	}
}

// Property: under random interleaved queries/inserts/deletes, Select always
// agrees with an eager reference model.
func TestQuickColModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = Value(rng.Int63n(100))
		}
		c := NewCol(store.NewColumn("A", vals))
		m := &model{vals: map[int]Value{}}
		for i, v := range vals {
			m.vals[i] = v
		}
		nextKey := n
		live := make([]int, n)
		for i := range live {
			live[i] = i
		}
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0: // insert
				v := Value(rng.Int63n(100))
				c.Insert(nextKey, v)
				m.vals[nextKey] = v
				live = append(live, nextKey)
				nextKey++
			case 1: // delete a random live key
				if len(live) > 0 {
					i := rng.Intn(len(live))
					k := live[i]
					live = append(live[:i], live[i+1:]...)
					c.Delete(k)
					delete(m.vals, k)
				}
			default: // query
				pred := randPred(rng, 100)
				got := sortedKeys(c.Select(pred))
				want := m.selectKeys(pred)
				if len(got) != len(want) {
					return false
				}
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
				if !c.P.CheckPieces() {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRelSelect(t *testing.T) {
	base := []Value{5, 15, 25, 35, 45}
	keys := []Value{4, 0, 2}
	got := RelSelect(keys, base, store.Range(20, 50))
	if len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Fatalf("RelSelect = %v, want [4 2]", got)
	}
}

func BenchmarkColSelectSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]Value, 1<<17)
	for i := range vals {
		vals[i] = Value(rng.Int63n(1 << 17))
	}
	base := store.NewColumn("A", vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := NewCol(base)
		b.StartTimer()
		for q := 0; q < 100; q++ {
			lo := rng.Int63n(1 << 17)
			c.Select(store.Range(lo, lo+(1<<14)))
		}
	}
}
