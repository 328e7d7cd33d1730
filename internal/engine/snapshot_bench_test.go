package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// snapBenchRows is the size of the relation the Snapshot microbenchmarks
// crack, and snapBenchSel the selectivity of their ranges.
const (
	snapBenchRows = 1_000_000
	snapBenchSel  = 0.001
)

var snapBenchBase = sync.OnceValue(func() *store.Relation {
	rng := rand.New(rand.NewSource(1))
	return store.Build("R", snapBenchRows, []string{"A", "B"}, func(string, int) Value {
		return rng.Int63n(snapBenchRows) + 1
	})
})

// snapBenchQueries draws n random ranges on A projecting B.
func snapBenchQueries(gen *workload.Gen, n int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Preds: []AttrPred{{Attr: "A", Pred: gen.Range(snapBenchSel)}}, Projs: []string{"B"}}
	}
	return qs
}

// warmSelCrack wraps a SelCrack engine over a copy of the benchmark
// relation and runs 2,000 random ranges on it. It returns the engine, the
// ranges it ran, and the generator that drew them, for fresh ones.
func warmSelCrack(wrap func(Engine) Engine) (Engine, []Query, *workload.Gen) {
	e := wrap(New(SelCrack, cloneRel(snapBenchBase())))
	gen := workload.New(snapBenchRows, 2)
	pool := snapBenchQueries(gen, 2_000)
	for _, q := range pool {
		e.Query(q)
	}
	return e, pool, gen
}

// BenchmarkSnapshotWarmRead answers ranges the warm-up cracked, lock-free.
// heap_MB is the heap in use after the warm-up, base relation included.
func BenchmarkSnapshotWarmRead(b *testing.B) {
	e, pool, _ := warmSelCrack(Snapshot)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.QueryRO(pool[i%len(pool)]); !ok {
			b.Fatal("a warm range was refused")
		}
	}
	b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heap_MB")
}

// BenchmarkSnapshotConvergedCrack runs one fresh range per op on the warm
// column: a crack of the small pieces its bounds fall into, and the
// version it publishes.
func BenchmarkSnapshotConvergedCrack(b *testing.B) {
	e, _, gen := warmSelCrack(Snapshot)
	qs := snapBenchQueries(gen, b.N)
	b.ResetTimer()
	for _, q := range qs {
		e.Query(q)
	}
}

// BenchmarkSnapshotInsertCrack inserts a row and runs a fresh range per op
// on the warm column, on Snapshot and, over the same stream, on Concurrent.
func BenchmarkSnapshotInsertCrack(b *testing.B) {
	for _, c := range []struct {
		name string
		wrap func(Engine) Engine
	}{{"snapshot", Snapshot}, {"concurrent", Concurrent}} {
		b.Run(c.name, func(b *testing.B) {
			e, _, gen := warmSelCrack(c.wrap)
			qs := snapBenchQueries(gen, b.N)
			rows := make([][]Value, b.N)
			for i := range rows {
				rows[i] = []Value{gen.Value(), gen.Value()}
			}
			b.ResetTimer()
			for i, q := range qs {
				e.Insert(rows[i]...)
				e.Query(q)
			}
		})
	}
}

// BenchmarkSnapshotCold100 wraps a cold SelCrack engine and runs its first
// 100 random ranges, per op.
func BenchmarkSnapshotCold100(b *testing.B) {
	qs := snapBenchQueries(workload.New(snapBenchRows, 3), 100)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := Snapshot(New(SelCrack, cloneRel(snapBenchBase())))
		b.StartTimer()
		for _, q := range qs {
			e.Query(q)
		}
	}
}
