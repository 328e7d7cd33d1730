package shard

import (
	"errors"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/serve"
	"crackstore/internal/store"
	"crackstore/internal/wal"
)

// The stacks a report has to be right on; all but "bare" may be shared.
type openStack = func(*testing.T, engine.Kind, *store.Relation) engine.Engine

func wrapped(wrap func(engine.Engine) engine.Engine) openStack {
	return func(_ *testing.T, k engine.Kind, rel *store.Relation) engine.Engine { return wrap(engine.New(k, rel)) }
}

func sharded(o Options) openStack {
	return func(_ *testing.T, k engine.Kind, rel *store.Relation) engine.Engine { return New(k, rel, 4, o) }
}

var reportStacks = map[string]openStack{
	"bare":            wrapped(func(e engine.Engine) engine.Engine { return e }),
	"concurrent":      wrapped(engine.Concurrent),
	"snapshot":        wrapped(engine.Snapshot),
	"shards":          sharded(Options{Attr: "A"}),
	"shards+snapshot": sharded(Options{Attr: "A", Snapshot: true}),
	"durable": func(t *testing.T, k engine.Kind, rel *store.Relation) engine.Engine {
		e, err := engine.OpenDurable(k, rel, t.TempDir(), engine.DurableOptions{Sync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { engine.CloseDurable(e) })
		return e
	},
}

// eachStack runs f on every stack × kind, over a fresh 4000-row relation.
func eachStack(t *testing.T, f func(t *testing.T, stack string, kind engine.Kind, e engine.Engine)) {
	for stack, open := range reportStacks {
		for _, kind := range []engine.Kind{engine.Scan, engine.SelCrack, engine.Sideways, engine.PartialSideways} {
			t.Run(stack+"/"+kind.String(), func(t *testing.T) {
				f(t, stack, kind, open(t, kind, buildRel(rand.New(rand.NewSource(3)), 4000, 4000)))
			})
		}
	}
}

// TestWrapContract pins what "a stack is fixed when it is built" asks of
// every wrapper, over every stack that may be shared, and the bare engine:
//
//   - whoever shares a stack wraps it once: Concurrent, Snapshot and the
//     engine serve.New executes against leave a guarded stack as it is,
//     pointer-equal, and wrap a bare engine exactly once;
//   - a wrapper forwards Engine and Report and nothing else: the exported
//     method set of each wrapper type is exactly that (plus Close on the
//     durable engine), so a wrapper that grows the contract fails here.
func TestWrapContract(t *testing.T) {
	shares := map[string]func(engine.Engine) engine.Engine{
		"Concurrent": engine.Concurrent,
		"Snapshot":   engine.Snapshot,
		"serve.New": func(e engine.Engine) engine.Engine {
			srv := serve.New(e, serve.Options{})
			defer srv.Close()
			return srv.Engine()
		},
	}
	contract := []string{"Report"}
	for i, it := 0, reflect.TypeFor[engine.Engine](); i < it.NumMethod(); i++ {
		contract = append(contract, it.Method(i).Name)
	}
	for stack, open := range reportStacks {
		for _, kind := range []engine.Kind{engine.SelCrack, engine.Sideways} {
			t.Run(stack+"/"+kind.String(), func(t *testing.T) {
				e := open(t, kind, buildRel(rand.New(rand.NewSource(5)), 500, 500))
				for name, share := range shares {
					switch w := share(e); {
					case stack != "bare" && w != e:
						t.Errorf("%s re-wrapped a guarded stack in %T", name, w)
					case stack == "bare" && (w == e || share(w) != w):
						t.Errorf("%s did not wrap a bare engine exactly once", name)
					}
				}
				if stack == "bare" {
					return
				}
				want := slices.Clone(contract)
				if stack == "durable" {
					want = append(want, "Close")
				}
				var got []string
				for i, wt := 0, reflect.TypeOf(e); i < wt.NumMethod(); i++ {
					got = append(got, wt.Method(i).Name)
				}
				slices.Sort(want)
				if !slices.Equal(got, want) { // reflect lists methods sorted by name
					t.Errorf("%T exports %v, want exactly %v", e, got, want)
				}
			})
		}
	}
}

// churn cracks, inserts and deletes: the load every report test runs.
func churn(e engine.Engine, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		lo := rng.Int63n(3000)
		if i%5 == 3 {
			e.Delete(e.Insert(lo, lo, lo))
			continue
		}
		e.Query(engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(lo, lo+900)}},
			Projs: []string{"B"},
		})
	}
}

// TestReportFamiliesPerStack: /metrics lists a family exactly when the
// stack has its layer — a lock-free stack has no reader-wait families, a
// locked one publishes no snapshot versions, and so on down the table.
func TestReportFamiliesPerStack(t *testing.T) {
	sections := []string{"crack_kernel_", "crack_index_", "crack_partial_", "crack_engine_reader_",
		"crack_snapshot_", "crack_wal_", "crack_engine_storage_"}
	eachStack(t, func(t *testing.T, stack string, kind engine.Kind, e engine.Engine) {
		want := []string{"crack_engine_storage_"}
		if kind != engine.Scan {
			want = append(want, "crack_kernel_", "crack_index_")
		}
		if kind == engine.PartialSideways {
			want = append(want, "crack_partial_")
		}
		if kind == engine.SelCrack && strings.Contains(stack, "snapshot") {
			want = append(want, "crack_snapshot_")
		} else if stack != "bare" {
			want = append(want, "crack_engine_reader_") // every other guard is the RWMutex one
		}
		if stack == "durable" {
			want = append(want, "crack_wal_")
		}
		reg := obs.NewRegistry()
		engine.RegisterMetrics(reg, e)
		var got []string
		for _, fam := range reg.Families() {
			i := slices.IndexFunc(sections, func(p string) bool { return strings.HasPrefix(fam, p) })
			if i < 0 {
				t.Fatalf("family %s belongs to no section", fam)
			}
			if !slices.Contains(got, sections[i]) {
				got = append(got, sections[i])
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("family prefixes %v, want %v\n%v", got, want, reg.Families())
		}
	})
}

// numbers flattens every numeric field of a report into path -> value, and
// hands each to set (when not nil) to be overwritten first.
func numbers(r *engine.Report, set func(reflect.Value)) map[string]float64 {
	out := map[string]float64{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Int, reflect.Int64, reflect.Uint64:
			if set != nil {
				set(v)
			}
			if v.CanInt() {
				out[path] = float64(v.Int())
			} else {
				out[path] = float64(v.Uint())
			}
		case reflect.Bool:
		default:
			panic("report field of a kind the fold test does not know: " + path)
		}
	}
	walk(reflect.ValueOf(r).Elem(), "Report")
	return out
}

// TestReportAddFoldsEveryField is the guard that replaces the per-struct
// forwarders: Report.Add must sum every numeric field of every section —
// found by reflection, so a field added later cannot be forgotten — and a
// sharded engine's report must be that fold of its shards' reports.
func TestReportAddFoldsEveryField(t *testing.T) {
	var a, b, sum engine.Report
	for _, r := range []*engine.Report{&a, &b} {
		rv := reflect.ValueOf(r).Elem()
		for i := 0; i < rv.NumField(); i++ {
			rv.Field(i).Set(reflect.New(rv.Type().Field(i).Type.Elem()))
		}
	}
	next := int64(1000)
	distinct := func(v reflect.Value) {
		if next++; v.CanInt() {
			v.SetInt(next)
		} else {
			v.SetUint(uint64(next))
		}
	}
	na, nb := numbers(&a, distinct), numbers(&b, distinct)
	sum.Add(a)
	sum.Add(b)
	for path, got := range numbers(&sum, nil) {
		if got != na[path]+nb[path] {
			t.Errorf("Add: %s = %v, want %v + %v", path, got, na[path], nb[path])
		}
		delete(na, path)
	}
	if len(na) != 0 {
		t.Errorf("Add dropped %v", na)
	}
	if len(nb) < 26 { // 26 at the time of writing
		t.Fatalf("reflection found only %d numeric fields", len(nb))
	}

	eachStack(t, func(t *testing.T, _ string, _ engine.Kind, e engine.Engine) {
		churn(e, 7, 40)
		parts := []engine.Engine{e}
		if s, ok := e.(*Engine); ok {
			parts = s.shards
		}
		want := map[string]float64{}
		for _, p := range parts {
			r := engine.ReportOf(p)
			for path, v := range numbers(&r, nil) {
				want[path] += v
			}
		}
		got := engine.ReportOf(e)
		if n := numbers(&got, nil); !reflect.DeepEqual(n, want) {
			t.Fatalf("report is not the fold of its %d parts:\n got %v\nwant %v", len(parts), n, want)
		}
		if k, c, s, d := got.Kernel, got.Chunks, got.Snapshot, got.Durable; k != nil && (k.Visited == 0 || k.Pieces == 0) ||
			c != nil && c.Created == 0 || s != nil && s.Published == 0 || d != nil && d.Wal.Appends == 0 {
			t.Errorf("the load left a section it has at zero, so the equality above compared zeros: %v", want)
		}
	})
}

// TestConcurrentScrapeUnderLoad scrapes /metrics, text and JSON, while
// eight goroutines crack, insert and delete: Report reads live state under
// each wrapper's own lock, so a scrape must not race (run under -race) —
// and must not count as reader contention either.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	eachStack(t, func(t *testing.T, stack string, _ engine.Kind, e engine.Engine) {
		if stack == "bare" {
			t.Skip("a bare engine is its caller's to serialize")
		}
		reg := obs.NewRegistry()
		engine.RegisterMetrics(reg, e)
		scrape := func() {
			if err := errors.Join(reg.WritePrometheus(io.Discard), reg.WriteJSON(io.Discard)); err != nil {
				t.Error(err)
			}
		}
		var wg sync.WaitGroup
		done := make(chan struct{})
		for g := int64(0); g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				churn(e, g, 60)
			}()
		}
		go func() { wg.Wait(); close(done) }()
		for scraping := true; scraping; {
			select {
			case <-done:
				scraping = false
			default:
				scrape()
			}
		}
		before, _ := engine.ConcStatsOf(e)
		for i := 0; i < 20; i++ {
			scrape()
		}
		if after, _ := engine.ConcStatsOf(e); after.ReaderWaits != before.ReaderWaits {
			t.Fatalf("a scrape-only load counted %d blocked readers", after.ReaderWaits-before.ReaderWaits)
		}
	})
}
