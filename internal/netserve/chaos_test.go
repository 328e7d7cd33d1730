package netserve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/faultnet"
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

// TestChaosEquivalence is the resilience layer's property test: a
// remote-vs-in-process workload runs THROUGH a fault-injecting proxy
// (corruption, resets, partial writes, truncation, delays at >= 1%
// aggregate) and must still satisfy, end to end:
//
//   - zero wrong answers — every remote result byte-identical to the
//     in-process engine (the frame checksum turns corruption into conn
//     errors, never silent damage);
//   - zero duplicated write effects — insert keys and final row counts
//     match exactly, because retried writes are deduplicated by token;
//   - zero client-visible errors for retryable faults — the retry budget
//     absorbs every injected failure;
//   - clean drain — server, proxy, and client all close without leaking
//     goroutines (enforced by -race and the t.Cleanup ordering).
func TestChaosEquivalence(t *testing.T) {
	cases := []struct {
		name string
		kind engine.Kind
		rate float64
		seed int64
	}{
		{"selcrack/1pct", engine.SelCrack, 0.01, 101},
		{"sideways/1pct", engine.Sideways, 0.01, 202},
		{"sideways/5pct", engine.Sideways, 0.05, 303},
		{"scan/5pct", engine.Scan, 0.05, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const (
				rows   = 800
				domain = 300
				ops    = 160
			)
			base := store.Build("R", rows, []string{"A", "B", "C"},
				func(attr string, row int) store.Value {
					h := int64(row)*2654435761 + int64(len(attr))*97
					return 1 + (h%domain+domain)%domain
				})
			local := engine.New(tc.kind, cloneRel(base))
			s := startServer(t, engine.New(tc.kind, cloneRel(base)), Options{})

			p, err := faultnet.NewProxy("127.0.0.1:0", s.Addr().String(), faultnet.Mix(tc.rate, tc.seed))
			if err != nil {
				t.Fatalf("proxy: %v", err)
			}
			t.Cleanup(func() { p.Close() })

			c, err := client.Dial(p.Addr().String(), client.Options{
				Conns:      2,
				MaxRetries: 16,
				RetryBase:  time.Millisecond,
				RetryMax:   50 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("dial through proxy: %v", err)
			}
			t.Cleanup(func() { c.Close() })

			r := rand.New(rand.NewSource(tc.seed))
			var liveKeys []int
			nextVal := func() store.Value { return 1 + r.Int63n(domain) }

			// Phase 1: sequential interleaved workload through the faults.
			for i := 0; i < ops; i++ {
				switch {
				case r.Intn(10) == 0:
					vals := []store.Value{nextVal(), nextVal(), nextVal()}
					wantKey := local.Insert(vals...)
					gotKey, err := c.Insert(vals...)
					if err != nil {
						t.Fatalf("op %d: insert through faults: %v", i, err)
					}
					if gotKey != wantKey {
						t.Fatalf("op %d: insert key %d != in-process %d (write duplicated or lost)", i, gotKey, wantKey)
					}
					liveKeys = append(liveKeys, gotKey)
				case r.Intn(12) == 0 && len(liveKeys) > 0:
					j := r.Intn(len(liveKeys))
					key := liveKeys[j]
					liveKeys = append(liveKeys[:j], liveKeys[j+1:]...)
					local.Delete(key)
					if err := c.Delete(key); err != nil {
						t.Fatalf("op %d: delete through faults: %v", i, err)
					}
				default:
					q := genQuery(r, domain)
					wantRes, _ := local.Query(q)
					gotRes, _, err := c.Query(q)
					if err != nil {
						t.Fatalf("op %d: query through faults: %v", i, err)
					}
					if !bytes.Equal(encodeResult(gotRes), encodeResult(wantRes)) {
						t.Fatalf("op %d: WRONG ANSWER through faults for %+v: remote N=%d local N=%d",
							i, q, gotRes.N, wantRes.N)
					}
				}
			}

			// Duplicated-write check by total row count: a double-applied
			// insert or delete shifts this count even if later keys happen
			// to line up.
			full := engine.Query{
				Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(1, int64(domain))}},
				Projs: []string{"A"},
			}
			wantFull, _ := local.Query(full)
			gotFull, _, err := c.Query(full)
			if err != nil {
				t.Fatalf("full-count query: %v", err)
			}
			if gotFull.N != wantFull.N {
				t.Fatalf("row count drifted through faults: remote %d, in-process %d", gotFull.N, wantFull.N)
			}

			// Phase 2: frozen query pool, hammered concurrently through the
			// fault proxy; answers must not drift and no call may error.
			pool := make([]engine.Query, 8)
			want := make([][]byte, len(pool))
			for i := range pool {
				pool[i] = genQuery(r, domain)
				local.Query(pool[i])
				if _, _, err := c.Query(pool[i]); err != nil {
					t.Fatalf("warm query %d: %v", i, err)
				}
			}
			for i := range pool {
				res, _ := local.Query(pool[i])
				want[i] = encodeResult(res)
			}
			var wg sync.WaitGroup
			fail := make(chan string, 32)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rr := rand.New(rand.NewSource(seed))
					for i := 0; i < 25; i++ {
						j := rr.Intn(len(pool))
						res, _, err := c.Query(pool[j])
						if err != nil {
							fail <- fmt.Sprintf("concurrent query through faults: %v", err)
							return
						}
						if !bytes.Equal(encodeResult(res), want[j]) {
							fail <- fmt.Sprintf("concurrent query %d: answer drifted under faults", j)
							return
						}
					}
				}(tc.seed + int64(g))
			}
			wg.Wait()
			close(fail)
			for msg := range fail {
				t.Fatal(msg)
			}

			ctr := c.Counters()
			if tc.rate > 0 && ctr.Retries == 0 && ctr.Redials == 0 {
				t.Logf("note: no faults were hit this run (rate %.0f%%)", tc.rate*100)
			}
			t.Logf("chaos %s: retries=%d redials=%d sheds=%d", tc.name, ctr.Retries, ctr.Redials, ctr.Sheds)
		})
	}
}
