package crack

import (
	"math/rand"
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
func newTestSnapCol(rng *rand.Rand, n int, domain int64) (*SnapCol, *Epoch, *model) {
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = Value(rng.Int63n(domain))
	}
	ep := NewEpoch()
	c := NewSnapCol(store.NewColumn("A", vals), Policy{}, ep, nil)
	m := &model{vals: map[int]Value{}}
	for i, v := range vals {
		m.vals[i] = v
	}
	return c, ep, m
}

// gatherAll answers pred through the snapshot read path, falling back to the
// writer path exactly like the engine does.
func snapSelect(c *SnapCol, ep *Epoch, pred store.Pred) []Value {
	if keys, ok := func() ([]Value, bool) {
		pin := ep.Enter()
		defer ep.Exit(pin)
		return c.GatherRO(pred)
	}(); ok {
		return keys
	}
	return c.Select(pred)
}

func TestSnapColModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const domain = 500
	c, ep, m := newTestSnapCol(rng, 1000, domain)
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
			got := sortedKeys(snapSelect(c, ep, pred))
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
	ep := NewEpoch()
	c := NewSnapCol(store.NewColumn("A", []Value{10, 20, 30, 40}), Policy{}, ep, nil)
	pred := store.Range(15, 45)
	c.Select(pred) // establish the cuts
	c.Insert(4, 25)
	c.Delete(1) // key 1 (value 20) is materialized: a pending deletion
	keys, ok := func() ([]Value, bool) {
		pin := ep.Enter()
		defer ep.Exit(pin)
		return c.GatherRO(pred)
	}()
	if !ok {
		t.Fatal("GatherRO refused a cracked predicate")
	}
	got := sortedKeys(keys)
	want := []int{2, 3, 4} // 30, 40, and the pending 25; 20 deleted
	if len(got) != len(want) {
		t.Fatalf("got keys %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got keys %v, want %v", got, want)
		}
	}
}

func TestEpochProtocol(t *testing.T) {
	ep := NewEpoch()
	if ep.MinActive() == 0 {
		t.Fatal("no readers: MinActive must not block reclamation")
	}
	// The pinned window runs in its own scope: the deferred Exit marks
	// exactly where the reader departs.
	tag := func() uint64 {
		p1 := ep.Enter()
		defer ep.Exit(p1)
		e1 := ep.Now()
		tag := ep.Advance() // something retired after p1 entered
		if tag <= e1 {
			t.Fatalf("advance did not move the clock: tag %d, enter epoch %d", tag, e1)
		}
		if min := ep.MinActive(); min > e1 {
			t.Fatalf("pinned reader invisible: MinActive %d > enter epoch %d", min, e1)
		}
		// The retired tag must NOT be reclaimable while p1 is pinned.
		if tag < ep.MinActive() {
			t.Fatal("retired state reclaimable under a live pin")
		}
		return tag
	}()
	if tag >= ep.MinActive() {
		t.Fatal("retired state still held back after the only reader exited")
	}
}

func TestEpochOverflow(t *testing.T) {
	ep := NewEpoch()
	pins := make([]Pin, 0, epochSlots+3)
	for i := 0; i < epochSlots+3; i++ {
		//crackvet:ignore epochpin the overflow test must accumulate pins to exhaust the slot array
		pins = append(pins, ep.Enter())
	}
	overflowed := 0
	for _, p := range pins {
		if p.slot < 0 {
			overflowed++
		}
	}
	if overflowed != 3 {
		t.Fatalf("expected 3 overflow pins, got %d", overflowed)
	}
	if ep.MinActive() != 0 {
		t.Fatal("overflow pins must block all reclamation")
	}
	if got := ep.Active(); got != epochSlots+3 {
		t.Fatalf("Active = %d, want %d", got, epochSlots+3)
	}
	for _, p := range pins {
		ep.Exit(p)
	}
	if ep.MinActive() == 0 {
		t.Fatal("reclamation still blocked after all pins exited")
	}
}

func TestSnapColReclaimWaitsForReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c, ep, _ := newTestSnapCol(rng, 1000, 1000)

	// Writer replaces state while a reader is pinned: retired pieces must
	// stay in limbo. The pinned window is its own scope so the deferred
	// Exit marks exactly where the reader departs.
	func() {
		pin := ep.Enter()
		defer ep.Exit(pin)
		c.Select(store.Range(100, 200))
		c.Select(store.Range(300, 400))
		if st := c.Stats(); st.Limbo == 0 {
			t.Fatal("retired versions reclaimed under a live pin")
		}
	}()
	// The next publish reclaims everything the departed reader held back.
	c.Select(store.Range(500, 600))
	st := c.Stats()
	if st.Limbo > 1 { // only the newest retirement may still be pending
		t.Fatalf("limbo backlog after readers left: %+v", st)
	}
	if st.Reclaimed == 0 {
		t.Fatal("nothing reclaimed after readers left")
	}
}

// TestSnapColPoisonCatchesUseAfterReclaim demonstrates the Poison harness:
// a pinned reader's loaded version is never poisoned, while an unpinned
// (buggy) reader holding stale state would observe poisonValue.
func TestSnapColPoisonCatchesUseAfterReclaim(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c, ep, _ := newTestSnapCol(rng, 1000, 1000)
	c.Poison = true

	// Correct reader: pins, loads, is never corrupted.
	func() {
		pin := ep.Enter()
		defer ep.Exit(pin)
		v := c.cur.Load()
		c.Select(store.Range(100, 900)) // cracks: retires the single piece
		for _, pc := range v.pieces {
			for _, val := range pc.head {
				if val == poisonValue {
					t.Fatal("pinned reader's version was poisoned")
				}
			}
		}
	}()

	// Buggy reader: holds version state without a pin. After the next
	// publish its memory is fair game and the poison must land.
	stale := c.cur.Load()
	c.Select(store.Range(200, 300))
	c.Select(store.Range(400, 500))
	poisoned := false
	for _, pc := range stale.pieces {
		for _, val := range pc.head {
			if val == poisonValue {
				poisoned = true
			}
		}
	}
	if !poisoned {
		t.Fatal("unpinned stale version escaped poisoning (reclaim not exercised)")
	}
}

// TestSnapColConcurrentReaders hammers one SnapCol with lock-free readers
// while a serialized writer cracks and mutates continuously. Run with -race.
func TestSnapColConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const domain = 2000
	c, ep, _ := newTestSnapCol(rng, 4000, domain)
	c.Poison = true // make premature reclamation corrupt answers observably

	var stop atomic.Bool
	var mu sync.Mutex // the writer serialization SnapCol requires
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				pred := randPred(rng, domain)
				// One pinned read per iteration: the closure scope keeps
				// the defer per-iteration rather than per-goroutine.
				if !func() bool {
					pin := ep.Enter()
					defer ep.Exit(pin)
					keys, ok := c.GatherRO(pred)
					if !ok {
						return true
					}
					// Touch every key while pinned; poisoned answers would
					// surface as impossible key values.
					for _, k := range keys {
						if k == poisonValue {
							t.Error("reader observed a poisoned key: premature reclaim")
							return false
						}
					}
					return true
				}() {
					return
				}
			}
		}(int64(100 + r))
	}
	writerRng := rand.New(rand.NewSource(42))
	nextKey := 4000
	for i := 0; i < 300; i++ {
		mu.Lock()
		switch writerRng.Intn(4) {
		case 0:
			c.Insert(nextKey, Value(writerRng.Int63n(domain)))
			nextKey++
		case 1:
			c.Delete(writerRng.Intn(nextKey))
		default:
			c.Select(randPred(writerRng, domain))
		}
		mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	if !c.CheckVersion() {
		t.Fatal("final version violates the piece invariant")
	}
	st := c.Stats()
	if st.Published == 0 || st.Reclaimed == 0 {
		t.Fatalf("run exercised nothing: %+v", st)
	}
}
