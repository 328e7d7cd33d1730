package sideways

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"crackstore/internal/store"
)

// Selection cracking's cracker column C_A is S_A's key map: Keys is
// crackers.select on it, with the set's pending-update ledger. These tests
// check it against an eagerly updated model of key -> value.

// keyModel is the reference: the live tuples, mutated eagerly.
type keyModel map[int]Value

func (m keyModel) keys(pred store.Pred) []int {
	var out []int
	for k, v := range m {
		if pred.Matches(v) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// keyStore returns a store over one attribute A holding vals, and its model.
func keyStore(vals ...Value) (*Store, keyModel) {
	rel := store.NewRelation("R", "A")
	rel.MustColumn("A").Vals = vals
	m := keyModel{}
	for k, v := range vals {
		m[k] = v
	}
	return NewStore(rel), m
}

func sortedKeys(view []Value) []int {
	out := make([]int, len(view))
	for i, k := range view {
		out[i] = int(k)
	}
	slices.Sort(out)
	return out
}

func randKeyPred(rng *rand.Rand, domain int64) store.Pred {
	lo := rng.Int63n(domain)
	hi := lo + rng.Int63n(domain-lo+1)
	return store.Pred{Lo: lo, Hi: hi, LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0}
}

func TestKeysSelectMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]Value, 1000)
	for i := range vals {
		vals[i] = Value(rng.Int63n(500))
	}
	s, m := keyStore(vals...)
	for q := 0; q < 50; q++ {
		pred := randKeyPred(rng, 500)
		if got, want := sortedKeys(s.Keys("A", pred)), m.keys(pred); !slices.Equal(got, want) {
			t.Fatalf("query %d %v: keys %v, want %v", q, pred, got, want)
		}
	}
	if km := s.SetIfExists("A").MapIfExists(""); km == nil || km.Pairs().Idx.Pieces() < 2 {
		t.Fatal("the queries did not crack S_A's key map")
	}
}

func TestKeysInsertVisibleAfterMerge(t *testing.T) {
	s, _ := keyStore(10, 20, 30)
	s.Keys("A", store.Range(0, 5)) // S_A exists before the insert
	s.Insert(25)
	pend := s.SetIfExists("A").pend
	if len(pend.ins) != 1 {
		t.Fatalf("pending insertions = %v", pend.ins)
	}
	// A query not touching value 25 must not merge it.
	s.Keys("A", store.Range(100, 200))
	if len(pend.ins) != 1 {
		t.Fatal("insert merged by unrelated query")
	}
	// A query touching it must merge and return it.
	keys := sortedKeys(s.Keys("A", store.Range(20, 30)))
	if len(pend.ins) != 0 {
		t.Fatal("insert not merged")
	}
	if !slices.Equal(keys, []int{1, 3}) {
		t.Fatalf("keys = %v, want [1 3]", keys)
	}
}

func TestKeysDeleteHidesTuple(t *testing.T) {
	s, _ := keyStore(10, 20, 30, 20)
	s.Keys("A", store.Range(0, 5))
	s.Delete(1)
	if keys := sortedKeys(s.Keys("A", store.Point(20))); !slices.Equal(keys, []int{3}) {
		t.Fatalf("keys = %v, want [3]", keys)
	}
	if len(s.SetIfExists("A").pend.del) != 0 {
		t.Fatal("delete not merged by covering query")
	}
}

func TestKeysDeleteCancelsPendingInsert(t *testing.T) {
	s, _ := keyStore(10)
	s.Keys("A", store.Range(0, 5))
	s.Insert(50)
	s.Delete(1)
	if pend := s.SetIfExists("A").pend; len(pend.ins) != 0 || len(pend.del) != 0 {
		t.Fatal("delete of pending insert should cancel both")
	}
	if got := s.Keys("A", store.Point(50)); len(got) != 0 {
		t.Fatalf("cancelled tuple visible: %v", got)
	}
}

func TestKeysUpdateAsDeletePlusInsert(t *testing.T) {
	// An update is modeled as delete(old key) + insert(fresh key), per
	// Section 3.5 ("an update is merely translated into a deletion and an
	// insertion").
	s, _ := keyStore(10, 20)
	s.Delete(0)
	s.Insert(99)
	if keys := sortedKeys(s.Keys("A", store.Range(0, 1000))); !slices.Equal(keys, []int{1, 2}) {
		t.Fatalf("keys = %v, want [1 2]", keys)
	}
}

// A delete of a key no tuple has is ignored: it must not reach the ledger,
// whose merge reads the tuple's value, nor hide a tuple inserted later under
// that key.
func TestDeleteIgnoresUnknownKeys(t *testing.T) {
	s, _ := keyStore(10, 20)
	s.Keys("A", store.Range(0, 5))
	s.Delete(-1)
	s.Delete(2)
	s.Delete(5000)
	if pend := s.SetIfExists("A").pend; len(pend.del) != 0 {
		t.Fatalf("unknown keys reached the ledger: %v", pend.del)
	}
	if key := s.Insert(30); key != 2 {
		t.Fatalf("insert key %d, want 2", key)
	}
	if keys := sortedKeys(s.Keys("A", store.Range(0, 100))); !slices.Equal(keys, []int{0, 1, 2}) {
		t.Fatalf("keys = %v, want [0 1 2]", keys)
	}
}

// KeysRO answers exactly when Keys would not reorganize, and then answers
// what Keys answers.
func TestKeysRORefusesExactlyWhenKeysReorganizes(t *testing.T) {
	s, _ := keyStore(10, 20, 30, 40, 50)
	pred := store.Range(15, 45)
	if _, ok := s.KeysRO("A", pred); ok {
		t.Fatal("answered without S_A")
	}
	want := sortedKeys(s.Keys("A", pred))
	got, ok := s.KeysRO("A", pred)
	if !ok || !slices.Equal(sortedKeys(got), want) {
		t.Fatalf("warm KeysRO = %v, %v; want %v", got, ok, want)
	}
	if _, ok := s.KeysRO("A", store.Range(12, 45)); ok {
		t.Fatal("answered a predicate whose bound is not cracked")
	}
	s.Insert(60)
	if _, ok := s.KeysRO("A", pred); !ok {
		t.Fatal("refused over a pending insert outside the range")
	}
	s.Delete(2)
	if _, ok := s.KeysRO("A", pred); ok {
		t.Fatal("answered over a pending delete inside the range")
	}
}

// Property: under random interleaved queries, inserts and deletes, Keys
// always agrees with the eager model.
func TestQuickKeysModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]Value, 200)
		for i := range vals {
			vals[i] = Value(rng.Int63n(100))
		}
		s, m := keyStore(vals...)
		live := make([]int, len(vals))
		for i := range live {
			live[i] = i
		}
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0: // insert
				v := Value(rng.Int63n(100))
				k := s.Insert(v)
				m[k] = v
				live = append(live, k)
			case 1: // delete a random live key
				if len(live) > 0 {
					i := rng.Intn(len(live))
					k := live[i]
					live = append(live[:i], live[i+1:]...)
					s.Delete(k)
					delete(m, k)
				}
			default: // query
				pred := randKeyPred(rng, 100)
				if !slices.Equal(sortedKeys(s.Keys("A", pred)), m.keys(pred)) {
					return false
				}
				if s.checkInvariants() != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKeysSelectSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]Value, 1<<17)
	for i := range vals {
		vals[i] = Value(rng.Int63n(1 << 17))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _ := keyStore(vals...)
		b.StartTimer()
		for q := 0; q < 100; q++ {
			lo := rng.Int63n(1 << 17)
			s.Keys("A", store.Range(lo, lo+(1<<14)))
		}
	}
}
