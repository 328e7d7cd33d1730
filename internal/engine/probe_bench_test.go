package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crackstore/internal/store"
)

// Benchmarks for the read-only fast path of the two-phase protocol on
// selection cracking: a probe-hit answers a warm predicate entirely under a
// shared lock (QueryRO), while a probe-miss falls back to the exclusive
// cracking path (Query). Goroutine counts 1/4/16 show how the shared-lock
// path scales with available cores while the miss path serializes. The
// queries project nothing, so the probe itself is what is timed.

// probeRel is a one-attribute relation of n values drawn from [0, domain).
func probeRel(n int, domain int64, seed int64) *store.Relation {
	rng := rand.New(rand.NewSource(seed))
	return store.Build("R", n, []string{"A"}, func(string, int) Value { return rng.Int63n(domain) })
}

func probeQuery(pred store.Pred) Query { return Query{Preds: []AttrPred{{Attr: "A", Pred: pred}}} }

func BenchmarkProbeHit(b *testing.B) {
	for _, gor := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", gor), func(b *testing.B) {
			const n, pool = 100_000, 64
			e := New(SelCrack, probeRel(n, n, 5))
			rng := rand.New(rand.NewSource(5))
			qs := make([]Query, pool)
			for i := range qs {
				lo := rng.Int63n(n - n/100)
				qs[i] = probeQuery(store.Range(lo, lo+n/1000+1))
				e.Query(qs[i])
			}
			var mu sync.RWMutex
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / gor
			for g := 0; g < gor; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						res, _, ok := lockedQueryRO(&mu, e, qs[(g+i)%len(qs)])
						if !ok || res.N == 0 {
							panic("probe-hit benchmark missed")
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func BenchmarkProbeMiss(b *testing.B) {
	for _, gor := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", gor), func(b *testing.B) {
			// A huge value domain keeps every generated predicate cold, so
			// each query misses the probe and pays the exclusive crack.
			e := New(SelCrack, probeRel(100_000, 1<<40, 9))
			var mu sync.RWMutex
			var seq int64
			var seqMu sync.Mutex
			next := func() Query {
				seqMu.Lock()
				seq++
				lo := seq * 997 // distinct, never-repeating ranges
				seqMu.Unlock()
				return probeQuery(store.Range(lo<<20, lo<<20+1<<18))
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / gor
			for g := 0; g < gor; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						q := next()
						if _, _, ok := lockedQueryRO(&mu, e, q); ok {
							continue // unexpectedly warm; nothing to crack
						}
						lockedQuery(&mu, e, q)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// lockedQueryRO is one probe under mu's read lock.
func lockedQueryRO(mu *sync.RWMutex, e Engine, q Query) (Result, Cost, bool) {
	mu.RLock()
	defer mu.RUnlock()
	return e.QueryRO(q)
}

// lockedQuery is one crack under mu's write lock.
func lockedQuery(mu *sync.RWMutex, e Engine, q Query) {
	mu.Lock()
	defer mu.Unlock()
	e.Query(q)
}
