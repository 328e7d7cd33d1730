// Package obs is the observability core of crackstore: a stdlib-only
// metrics registry (atomic counters, gauges, and fixed-bucket log₂
// latency histograms) plus sampled per-query traces, built so the hot
// path never allocates and never takes a lock.
//
// Design rules:
//
//   - Instruments are plain structs of atomics. Add/Observe are a handful
//     of atomic ops — no maps, no interfaces, no allocation, no locks —
//     so serving layers can keep them on per-query paths.
//   - The Registry is only touched at registration time and at scrape
//     time. Layers hold direct *Counter/*Gauge/*Histogram pointers.
//   - An event is counted once. Layers that count on a hot path (serve,
//     netserve, client) keep the instruments themselves, always on, and a
//     registry only names them: a nil *Registry hands out instruments that
//     work and are not exported. State that is only ever read (an engine
//     stack's Report: kernel counters, snapshot versions, WAL activity) is
//     exported by func-backed metrics whose closure runs at scrape time
//     only.
//   - obs imports nothing from the rest of the repo; every other layer
//     may import obs. This keeps the dependency arrow one-directional.
//
// Metric naming follows Prometheus conventions: crack_<layer>_<what>[_unit]
// with counters suffixed _total and durations exported in seconds. See
// the "Observability" section in the root doc.go for the full scheme.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; all methods are safe for concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (queue depths, open conns).
// The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// nHistBuckets is one bucket per possible bits.Len64 of a nanosecond
// duration: bucket i holds observations with bits.Len64(ns) == i, i.e.
// ns in [2^(i-1), 2^i). Bucket 0 holds zero/negative observations.
const nHistBuckets = 65

// Histogram is a fixed-bucket log₂ latency histogram. Observe is a few
// atomic ops (bucket add, sum add, a max check that is read-only unless
// a new maximum arrives) — no locks, no allocation — so it can sit on
// the per-query hot path. There is deliberately no separate count cell:
// the observation count is the sum of the buckets, computed at read
// time, which saves one contended atomic per Observe. Max is exact;
// quantiles are bucket upper bounds, so a reported quantile is never
// below the true value and never more than 2x above it.
type Histogram struct {
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds, exact (CAS race)
	buckets [nHistBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d <= 0 {
		// Zero contributes nothing to sum or max; one bucket add records it.
		h.buckets[0].Add(1)
		return
	}
	ns := uint64(d)
	h.buckets[bits.Len64(ns)].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations (the sum of the buckets;
// under concurrent Observe it is a lower bound on the true count).
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := 0; i < nHistBuckets; i++ {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the exact largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// bucketUpper returns the inclusive upper bound of bucket i in
// nanoseconds: the largest ns with bits.Len64(ns) == i.
func bucketUpper(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Quantile returns the q-quantile (0 < q <= 1) as the upper bound of the
// bucket holding the nearest-rank observation — within 2x of the true
// value by construction. It returns 0 for an empty histogram. The
// per-bucket loads are not a consistent snapshot; under concurrent
// Observe the result is approximate, which is fine for monitoring.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	// Nearest-rank: ceil(q * total), clamped to [1, total].
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < nHistBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(nHistBuckets - 1))
}

// HistSnapshot is a point-in-time summary of a Histogram.
type HistSnapshot struct {
	Count uint64
	Sum   time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snapshot summarizes the histogram. Like Quantile, it is approximate
// under concurrent Observe.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// metricKind discriminates registry entries at scrape time.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// metric is one registered family.
type metric struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
	cf   func() uint64
	gf   func() float64
}

// Registry names a set of metric families and exposes them (Prometheus
// text and JSON; see expo.go). Registration is cheap but locked; do it
// at setup time and keep the returned instrument pointers. A nil
// *Registry is valid for all registration calls and returns working
// instruments that simply aren't exported — callers can instrument
// unconditionally and let the owner decide whether to expose.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) add(m *metric) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name]; dup {
		panic("obs: duplicate metric " + m.name)
	}
	r.metrics[m.name] = m
	r.order = append(r.order, m.name)
}

// Counter registers and returns a counter family. Counter names should
// end in _total.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, kind: kindCounter, c: c})
	return c
}

// Gauge registers and returns a gauge family.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, kind: kindGauge, g: g})
	return g
}

// Histogram registers and returns a latency histogram family. Duration
// histograms should be named _seconds; exposition converts from the
// internal nanosecond buckets.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.add(&metric{name: name, help: help, kind: kindHistogram, h: h})
	return h
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time only — for cumulative state something else already keeps (an
// engine report's kernel counters and WAL appends), at zero hot-path cost.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.add(&metric{name: name, help: help, kind: kindCounterFunc, cf: fn})
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time
// only (piece counts, storage, tape length).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&metric{name: name, help: help, kind: kindGaugeFunc, gf: fn})
}

// Families returns the registered family names in registration order.
func (r *Registry) Families() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}
