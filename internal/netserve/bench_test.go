package netserve

import (
	"math/rand"
	"testing"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/serve"
	"crackstore/internal/store"
)

// BenchmarkRemoteWarmQuery measures the full wire round trip for warm
// (read-only) queries with b.N requests pipelined by RunParallel —
// the per-request overhead of the remote path over the in-process one.
func BenchmarkRemoteWarmQuery(b *testing.B) {
	rel := buildRelB(1, 100_000, 50_000)
	s, err := Listen("127.0.0.1:0", engine.New(engine.Sideways, rel), Options{
		Serve: serve.Options{Workers: 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := client.Dial(s.Addr().String(), client.Options{Conns: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	pool := warmPool(b, 32, 50_000, func(q engine.Query) error {
		_, _, err := c.Query(q)
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(7))
		for pb.Next() {
			if _, _, err := c.Query(pool[rng.Intn(len(pool))]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkInProcessWarmQuery is the same workload through serve.Server
// directly, for the overhead comparison.
func BenchmarkInProcessWarmQuery(b *testing.B) {
	rel := buildRelB(1, 100_000, 50_000)
	srv := serve.New(engine.New(engine.Sideways, rel), serve.Options{Workers: 8})
	defer srv.Close()
	pool := warmPool(b, 32, 50_000, func(q engine.Query) error {
		_, _, err := srv.Do(q)
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(7))
		for pb.Next() {
			if _, _, err := srv.Do(pool[rng.Intn(len(pool))]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func buildRelB(seed int64, n int, domain int64) *store.Relation {
	rng := rand.New(rand.NewSource(seed))
	return store.Build("R", n, []string{"A", "B", "C"}, func(string, int) store.Value {
		return 1 + rng.Int63n(domain)
	})
}

func warmPool(b *testing.B, n int, domain int64, do func(engine.Query) error) []engine.Query {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	pool := make([]engine.Query, n)
	for i := range pool {
		lo := 1 + rng.Int63n(domain-40)
		pool[i] = engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(lo, lo+20)}},
			Projs: []string{"B"},
		}
		if err := do(pool[i]); err != nil {
			b.Fatal(err)
		}
	}
	return pool
}
