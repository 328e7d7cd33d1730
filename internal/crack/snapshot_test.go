package crack

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

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

// newTestSnapCol builds a SnapCol plus its reference model over n uniform
// values in [0, domain).
func newTestSnapCol(rng *rand.Rand, n int, domain int64) (*SnapCol, *model) {
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = Value(rng.Int63n(domain))
	}
	c := NewSnapCol(store.NewColumn("A", vals), Policy{}, nil)
	m := &model{vals: map[int]Value{}}
	for i, v := range vals {
		m.vals[i] = v
	}
	return c, m
}

// snapSelect answers pred through the snapshot read path, falling back to
// the writer path exactly like the engine does.
func snapSelect(c *SnapCol, pred store.Pred) []Value {
	if keys, ok := c.GatherRO(pred); ok {
		return keys
	}
	return c.Select(pred)
}

func TestSnapColModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const domain = 500
	c, m := newTestSnapCol(rng, 1000, domain)
	nextKey := 1000
	for q := 0; q < 400; q++ {
		switch rng.Intn(10) {
		case 0: // insert
			v := Value(rng.Int63n(domain))
			c.Insert(nextKey, v)
			m.vals[nextKey] = v
			nextKey++
		case 1: // delete a random live key
			for k := range m.vals {
				c.Delete(k)
				delete(m.vals, k)
				break
			}
		default:
			pred := randPred(rng, domain)
			got := sortedKeys(snapSelect(c, pred))
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
		if !c.CheckVersion() {
			t.Fatalf("op %d: version violates the piece invariant", q)
		}
	}
	if c.Pieces() < 2 {
		t.Fatalf("workload never cracked: %d pieces", c.Pieces())
	}
}

func TestSnapColGatherROAppliesPending(t *testing.T) {
	c := NewSnapCol(store.NewColumn("A", []Value{10, 20, 30, 40}), Policy{}, nil)
	pred := store.Range(15, 45)
	c.Select(pred) // establish the cuts
	c.Insert(4, 25)
	c.Delete(1) // key 1 (value 20) is materialized: a pending deletion
	keys, ok := c.GatherRO(pred)
	if !ok {
		t.Fatal("GatherRO refused a cracked predicate")
	}
	got := sortedKeys(keys)
	want := []int{2, 3, 4} // 30, 40, and the pending 25; 20 deleted
	if !slices.Equal(got, want) {
		t.Fatalf("got keys %v, want %v", got, want)
	}
}

// versionSum fingerprints every value a version's pieces hold, in order.
func versionSum(v *colVersion) uint64 {
	h := uint64(len(v.pieces))
	for _, pc := range v.pieces {
		h = h*31 + uint64(len(pc.head))
		for i := range pc.head {
			h = (h*31+uint64(pc.head[i]))*31 + uint64(pc.tail[i])
		}
	}
	return h
}

// TestSnapColConcurrentReaders runs lock-free readers over static value
// bands while a serialized writer cracks, inserts and deletes in band 0.
// Every reader answer is precomputed: the bands never change, though
// deletions queued in them before the readers start are merged into pieces
// while they read. The writer also checks, after every operation, that the
// version it replaced — the one a slow reader may still traverse — holds
// exactly what it held before: published memory is never written. Run with
// -race as well.
func TestSnapColConcurrentReaders(t *testing.T) {
	const (
		n         = 4000
		bands     = 4
		bandWidth = 500
	)
	rng := rand.New(rand.NewSource(23))
	c, m := newTestSnapCol(rng, n, bands*bandWidth)

	// Queue deletions in the reader bands: pending now, merged into pieces
	// later by the writer's selects and by its backlog merges.
	var queued []Value
	for i := 0; i < 60; i++ {
		k := rng.Intn(n)
		if v, ok := m.vals[k]; ok && v >= bandWidth {
			c.Delete(k)
			delete(m.vals, k)
			queued = append(queued, Value(k))
		}
	}
	type check struct {
		pred store.Pred
		want []int
	}
	var checks []check
	for b := 1; b < bands; b++ {
		for i := 0; i < 8; i++ {
			lo := Value(b*bandWidth) + rng.Int63n(bandWidth-100)
			pred := store.Range(lo, lo+1+rng.Int63n(99))
			checks = append(checks, check{pred, m.selectKeys(pred)})
		}
	}

	var stop atomic.Bool
	var mu sync.Mutex // the writer serialization SnapCol requires
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				ck := checks[rng.Intn(len(checks))]
				keys, ok := c.GatherRO(ck.pred)
				if !ok {
					func() {
						mu.Lock()
						defer mu.Unlock()
						keys = c.Select(ck.pred)
					}()
				}
				if got := sortedKeys(keys); !slices.Equal(got, ck.want) {
					t.Errorf("reader %v (lock-free %v): got %d keys %v, want %d %v", ck.pred, ok, len(got), got, len(ck.want), ck.want)
					return
				}
			}
		}(int64(100 + r))
	}

	writerRng := rand.New(rand.NewSource(42))
	var mine []int // live keys in band 0
	for k, v := range m.vals {
		if v < bandWidth {
			mine = append(mine, k)
		}
	}
	slices.Sort(mine)
	nextKey := n
	for i := 0; i < 400; i++ {
		func() {
			mu.Lock()
			defer mu.Unlock()
			prev := c.cur.Load()
			sum := versionSum(prev)
			switch writerRng.Intn(5) {
			case 0:
				c.Insert(nextKey, Value(writerRng.Int63n(bandWidth)))
				mine = append(mine, nextKey)
				nextKey++
			case 1:
				if len(mine) > 0 {
					j := writerRng.Intn(len(mine))
					c.Delete(mine[j])
					mine = append(mine[:j], mine[j+1:]...)
				}
			case 2: // a reader band: merges its pending deletions, changes no answer
				c.Select(checks[writerRng.Intn(len(checks))].pred)
			default:
				lo := Value(writerRng.Int63n(bandWidth - 100))
				c.Select(store.Range(lo, lo+1+writerRng.Int63n(99)))
			}
			if versionSum(prev) != sum {
				t.Errorf("op %d wrote into the version it replaced", i)
			}
		}()
	}
	stop.Store(true)
	wg.Wait()
	if !c.CheckVersion() {
		t.Fatal("final version violates the piece invariant")
	}
	pending := 0
	for _, k := range queued {
		if c.cur.Load().pendDel[k] {
			pending++
		}
	}
	if pending == len(queued) {
		t.Fatalf("none of the %d deletions queued in the reader bands was merged while they read", len(queued))
	}
}
