// Package workload generates the query and update streams used by the
// paper's experiments: uniform random range queries with controlled
// selectivity or result size, point queries, skewed (hot-set) workloads,
// batch-cycling multi-attribute query mixes, and the HFLV/LFHV update
// scenarios of Exp6.
package workload

import (
	"math/rand"

	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// Gen produces predicates over an integer value domain [1, Domain].
type Gen struct {
	rng    *rand.Rand
	Domain int64
}

// New returns a generator with its own deterministic source.
func New(domain int64, seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed)), Domain: domain}
}

// Range returns a uniformly located range predicate covering frac of the
// domain (selectivity frac under uniform data).
func (g *Gen) Range(frac float64) store.Pred {
	return g.RangeIn(1, g.Domain, frac)
}

// RangeIn returns a range predicate of width frac*Domain located uniformly
// within [lo, hi]. The width is clamped to the window, so the generated
// range never runs past hi even when frac*Domain exceeds hi-lo.
func (g *Gen) RangeIn(lo, hi int64, frac float64) store.Pred {
	width := int64(float64(g.Domain) * frac)
	if width > hi-lo {
		width = hi - lo
	}
	if width < 1 {
		width = 1
	}
	span := hi - lo - width
	start := lo
	if span > 0 {
		start = lo + g.rng.Int63n(span+1)
	}
	return store.Range(start, start+width)
}

// Point returns a random point predicate.
func (g *Gen) Point() store.Pred {
	return store.Point(1 + g.rng.Int63n(g.Domain))
}

// Skewed returns a range predicate of the given fraction that falls in the
// hot region [1, hotFrac*Domain] with probability hotProb, else in the cold
// remainder (Exp5 uses hotFrac=0.5, hotProb=0.9; Fig 10(b) uses 0.2/0.9).
func (g *Gen) Skewed(frac, hotFrac, hotProb float64) store.Pred {
	hotHi := int64(float64(g.Domain) * hotFrac)
	if g.rng.Float64() < hotProb {
		return g.RangeIn(1, hotHi, frac)
	}
	return g.RangeIn(hotHi+1, g.Domain, frac)
}

// Values returns n uniform random values in [1, Domain]; used to build
// columns and update tuples.
func (g *Gen) Values(n int) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = 1 + g.rng.Int63n(g.Domain)
	}
	return out
}

// Value returns one uniform random value in [1, Domain].
func (g *Gen) Value() Value { return 1 + g.rng.Int63n(g.Domain) }

// Intn exposes the underlying source for auxiliary choices (batch picks).
func (g *Gen) Intn(n int) int { return g.rng.Intn(n) }

// Sequential returns the q-th predicate of a left-to-right sweep: query q
// covers the q-th adjacent window of width frac*Domain, wrapping around
// once the sweep passes the domain end. This is the access shape of
// cursor-style exploration (scrolling a time range), and the worst case
// for plain cracking: every query cracks off a small piece of one huge
// remainder that the next query re-scans, degrading toward quadratic
// total work.
func (g *Gen) Sequential(q int, frac float64) store.Pred {
	width := int64(float64(g.Domain) * frac)
	if width < 1 {
		width = 1
	}
	steps := g.Domain / width
	if steps < 1 {
		steps = 1
	}
	lo := 1 + (int64(q)%steps)*width
	hi := lo + width
	if hi > g.Domain+1 {
		hi = g.Domain + 1
	}
	return store.Range(lo, hi)
}

// ZoomIn returns the q-th predicate of a zoom-in sequence: the first query
// covers the whole domain and each subsequent query halves the window
// around a fixed interior target, restarting from the full domain once the
// window bottoms out (a fresh drill-down). Like Sequential, each query
// leaves most of its window uncracked for plain cracking to re-scan.
func (g *Gen) ZoomIn(q int) store.Pred {
	minWidth := g.Domain / 1024
	if minWidth < 1 {
		minWidth = 1
	}
	depth := 1
	for w := g.Domain; w/2 >= minWidth; w /= 2 {
		depth++
	}
	level := q % depth
	width := g.Domain >> uint(level)
	if width < 1 {
		width = 1
	}
	// An interior target off the midpoints, so zoom windows do not line up
	// with Capped's halving pivots by construction.
	target := 1 + (g.Domain*5)/8
	lo := target - width/2
	if lo < 1 {
		lo = 1
	}
	hi := lo + width
	if hi > g.Domain+1 {
		hi = g.Domain + 1
		lo = hi - width
		if lo < 1 {
			lo = 1
		}
	}
	return store.Range(lo, hi)
}

// Periodic returns the q-th predicate of a periodic sweep: like Sequential
// but the sweep covers the whole domain every period queries and then
// repeats (a dashboard refresh cycling through panels). The first pass
// behaves like a coarse sequential sweep; later passes revisit the same
// windows.
func (g *Gen) Periodic(q, period int, frac float64) store.Pred {
	if period < 1 {
		period = 1
	}
	width := int64(float64(g.Domain) * frac)
	if width < 1 {
		width = 1
	}
	step := g.Domain / int64(period)
	if step < 1 {
		step = 1
	}
	lo := 1 + int64(q%period)*step
	hi := lo + width
	if hi > g.Domain+1 {
		hi = g.Domain + 1
	}
	if lo >= hi {
		lo = hi - 1
	}
	return store.Range(lo, hi)
}

// PatternFunc returns the q-th predicate of an access pattern over g.
type PatternFunc func(g *Gen, q int) store.Pred

// Pattern maps a pattern name to its generator function: "random"
// (uniform ranges of the given selectivity), "sequential", "zoomin"
// (selectivity ignored; windows halve from the full domain), and
// "periodic" (sweep repeating every 100 queries). ok is false for unknown
// names.
func Pattern(name string, frac float64) (f PatternFunc, ok bool) {
	switch name {
	case "random":
		return func(g *Gen, q int) store.Pred { return g.Range(frac) }, true
	case "sequential":
		return func(g *Gen, q int) store.Pred { return g.Sequential(q, frac) }, true
	case "zoomin":
		return func(g *Gen, q int) store.Pred { return g.ZoomIn(q) }, true
	case "periodic":
		return func(g *Gen, q int) store.Pred { return g.Periodic(q, 100, frac) }, true
	}
	return nil, false
}

// PatternNames lists the patterns Pattern accepts, in presentation order.
func PatternNames() []string { return []string{"random", "sequential", "zoomin", "periodic"} }

// UpdateScenario describes the update experiments of Exp6 (Section 3.6):
// every Frequency queries, Volume random updates arrive. An update is a
// deletion of a random live tuple plus an insertion of a random new one.
type UpdateScenario struct {
	Name      string
	Frequency int // queries between update batches
	Volume    int // updates per batch
}

// HFLV is the high-frequency, low-volume scenario: 10 updates every 10
// queries.
var HFLV = UpdateScenario{Name: "HFLV", Frequency: 10, Volume: 10}

// LFHV is the low-frequency, high-volume scenario: 1000 updates every 1000
// queries.
var LFHV = UpdateScenario{Name: "LFHV", Frequency: 1000, Volume: 1000}

// BatchCycle deterministically yields the query-type index for query q when
// cycling through nTypes in batches of batchLen (the Q1..Q5 pattern of the
// Section 4.2 experiments).
func BatchCycle(q, batchLen, nTypes int) int {
	return (q / batchLen) % nTypes
}
