package netserve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/shard"
	"crackstore/internal/store"
	"crackstore/internal/wire"
)

// encodeResult canonicalizes a result for byte comparison: the wire
// encoding sorts columns, so two results encode identically iff they hold
// the same rows in the same order with the same projections.
func encodeResult(res engine.Result) []byte {
	return wire.AppendResponse(nil, &wire.Response{Op: wire.OpQuery, Result: res})
}

func cloneRel(rel *store.Relation) *store.Relation {
	out := store.NewRelation(rel.Name, rel.Order...)
	for _, a := range rel.Order {
		out.MustColumn(a).Vals = append([]store.Value(nil), rel.MustColumn(a).Vals...)
	}
	return out
}

// equivCase is one cell of the kinds × sharding matrix.
type equivCase struct {
	name    string
	kind    engine.Kind
	shards  int  // 0 = unsharded
	updates bool // RowStore is read-only
}

func equivMatrix() []equivCase {
	kinds := []engine.Kind{
		engine.Scan, engine.SelCrack, engine.Presorted,
		engine.Sideways, engine.PartialSideways,
	}
	var cases []equivCase
	for _, k := range kinds {
		cases = append(cases,
			equivCase{name: k.String(), kind: k, updates: true},
			equivCase{name: k.String() + "/sharded", kind: k, shards: 3, updates: true},
		)
	}
	// The read-only reference engine, both modes.
	cases = append(cases,
		equivCase{name: "rowstore", kind: engine.RowStore},
		equivCase{name: "rowstore/sharded", kind: engine.RowStore, shards: 3},
	)
	return cases
}

func buildCaseEngine(c equivCase, rel *store.Relation) engine.Engine {
	if c.shards > 0 {
		return shard.New(c.kind, rel, c.shards, shard.Options{Attr: "A"})
	}
	return engine.New(c.kind, rel)
}

// genQuery draws a random query over the relation: 1-2 predicates,
// conjunctive or disjunctive, 1-2 projections.
func genQuery(r *rand.Rand, domain int64) engine.Query {
	attrs := []string{"A", "B", "C"}
	nPreds := 1 + r.Intn(2)
	q := engine.Query{Disjunctive: nPreds > 1 && r.Intn(3) == 0}
	used := r.Perm(len(attrs))
	for i := 0; i < nPreds; i++ {
		lo := 1 + r.Int63n(domain-1)
		width := 1 + r.Int63n(domain/4)
		var p store.Pred
		switch r.Intn(3) {
		case 0:
			p = store.Range(lo, lo+width)
		case 1:
			p = store.Open(lo, lo+width)
		default:
			p = store.Point(lo)
		}
		q.Preds = append(q.Preds, engine.AttrPred{Attr: attrs[used[i]], Pred: p})
	}
	for _, j := range r.Perm(len(attrs))[:1+r.Intn(2)] {
		q.Projs = append(q.Projs, attrs[j])
	}
	return q
}

// TestRemoteEquivalence replays an identical workload — queries, inserts,
// deletes — through a remote client against a loopback netserve daemon and
// directly against an in-process engine of the same kind, for every engine
// kind, sharded and unsharded. Every remote answer must be byte-identical
// (canonical wire encoding) to the in-process one, and insert keys must
// match. A final concurrent phase then pipelines the warmed query pool
// through the wire from many goroutines and checks each answer against the
// in-process result, proving the network layer neither corrupts nor
// reorders within a response under real concurrency.
func TestRemoteEquivalence(t *testing.T) {
	const (
		rows   = 1200
		domain = 400
		ops    = 220
	)
	for _, tc := range equivMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			base := store.Build("R", rows, []string{"A", "B", "C"},
				func(attr string, row int) store.Value {
					// Deterministic but attribute-dependent contents.
					h := int64(row)*2654435761 + int64(len(attr))*97
					return 1 + (h%domain+domain)%domain
				})
			local := buildCaseEngine(tc, cloneRel(base))
			s := startServer(t, buildCaseEngine(tc, cloneRel(base)), Options{})
			c := dial(t, s, client.Options{Conns: 2})

			r := rand.New(rand.NewSource(42))
			var liveKeys []int
			nextVal := func() store.Value { return 1 + r.Int63n(domain) }

			// Phase 1: sequential interleaved workload, exact comparison.
			for i := 0; i < ops; i++ {
				switch {
				case tc.updates && r.Intn(10) == 0: // insert
					vals := []store.Value{nextVal(), nextVal(), nextVal()}
					wantKey := local.Insert(vals...)
					gotKey, err := c.Insert(vals...)
					if err != nil {
						t.Fatalf("op %d: remote insert: %v", i, err)
					}
					if gotKey != wantKey {
						t.Fatalf("op %d: insert key %d != in-process %d", i, gotKey, wantKey)
					}
					liveKeys = append(liveKeys, gotKey)
				case tc.updates && r.Intn(12) == 0 && len(liveKeys) > 0: // delete
					j := r.Intn(len(liveKeys))
					key := liveKeys[j]
					liveKeys = append(liveKeys[:j], liveKeys[j+1:]...)
					local.Delete(key)
					if err := c.Delete(key); err != nil {
						t.Fatalf("op %d: remote delete: %v", i, err)
					}
				default: // query
					q := genQuery(r, domain)
					wantRes, _ := local.Query(q)
					gotRes, _, err := c.Query(q)
					if err != nil {
						t.Fatalf("op %d: remote query: %v", i, err)
					}
					if !bytes.Equal(encodeResult(gotRes), encodeResult(wantRes)) {
						t.Fatalf("op %d: remote result differs from in-process for %+v:\nremote N=%d, local N=%d",
							i, q, gotRes.N, wantRes.N)
					}
				}
			}

			// Phase 2: a fixed pool, warmed on both sides so no further
			// reorganization can change physical result order, then
			// pipelined concurrently through the wire.
			pool := make([]engine.Query, 12)
			want := make([][]byte, len(pool))
			for i := range pool {
				// Warm both sides: cracks from later pool queries can still
				// reorder earlier answers, so expectations are captured in
				// a second pass once the layout is frozen.
				pool[i] = genQuery(r, domain)
				local.Query(pool[i])
				if _, _, err := c.Query(pool[i]); err != nil {
					t.Fatalf("warm query %d: %v", i, err)
				}
			}
			for i := range pool {
				res, _ := local.Query(pool[i])
				want[i] = encodeResult(res)
				if gotRes, _, err := c.Query(pool[i]); err != nil {
					t.Fatalf("capture query %d: %v", i, err)
				} else if !bytes.Equal(encodeResult(gotRes), want[i]) {
					t.Fatalf("capture query %d: remote result differs from in-process", i)
				}
			}
			var wg sync.WaitGroup
			fail := make(chan string, 32)
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rr := rand.New(rand.NewSource(seed))
					for i := 0; i < 30; i++ {
						j := rr.Intn(len(pool))
						res, _, err := c.Query(pool[j])
						if err != nil {
							fail <- fmt.Sprintf("concurrent query: %v", err)
							return
						}
						if !bytes.Equal(encodeResult(res), want[j]) {
							fail <- fmt.Sprintf("concurrent query %d: answer drifted", j)
							return
						}
					}
				}(int64(g))
			}
			wg.Wait()
			close(fail)
			for msg := range fail {
				t.Fatal(msg)
			}
			if st := s.Stats(); st.Errors != 0 {
				t.Fatalf("server recorded %d errors during equivalence run", st.Errors)
			}
		})
	}
}
