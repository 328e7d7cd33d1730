package main

import (
	"fmt"
	"runtime"
	"time"

	"crackstore"
	"crackstore/internal/engine"
	"crackstore/internal/partial"
	"crackstore/internal/sideways"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// Load sizes. Episode counts were calibrated once on the 2-core box so that
// a workload's whole run, its set-ups and oracle checks included, lasts
// about refSeconds; they are constants so that a run repeats the same
// program counters, and they scale only through config.episodes. Changing
// any of them starts a new baseline.
const (
	fullRows  = 1_000_000
	smokeRows = 20_000

	// minEpisodes is how many episodes a pass runs however slow the box is.
	minEpisodes = 3

	exploreQueries      = 1000 // per episode
	exploreColdEpisodes = 34
	exploreColdBatch    = 50

	exploreBudgetEpisodes = 25
	exploreBudgetBatch    = 100
	budgetMaps            = 3 // storage budget, in full-map equivalents (rows tuples each)

	updateMixEpisodes = 6
	updateMixQueries  = 1000 // before and again after the LFHV batch

	durableEpisodes = 15
	durableRounds   = 40 // per episode
	durableRoundOps = 10 // cold queries, then delete+insert pairs, per round

	poolSize         = 512
	setupRepeats     = 5 // serving stacks are built this often; the last one is measured
	churnPeriod      = 4 * time.Millisecond
	ledgerPoolPasses = 100 // passes over the pool per ledger boundary
)

// stack is one episode's engine over its own fresh clone.
type stack struct {
	e engine.Engine
	// after, if not nil, runs once the stream has and the clock has stopped,
	// and returns the engine whose live tuples the oracle is compared with:
	// durable-churn crashes e there and hands back the recovered store.
	after func(r *result) (engine.Engine, error)
	// close, if not nil, releases what open acquired.
	close func(r *result)
}

// episodic describes a single-client workload: every episode clones the
// relation, opens a fresh engine and runs one pre-generated op stream.
type episodic struct {
	tag      string
	layer    string // span name of the engine's boundary
	episodes int
	open     func(rel *store.Relation) (stack, error)
	stream   func(b *bench, g *workload.Gen) []op
	writes   bool // the stream updates: the oracle needs its own clone
	// inspect, if not nil, reads the map layer's state at the end of an
	// episode's stream.
	inspect func(e engine.Engine, r *result)
}

// bare makes an episodic's open out of a plain engine constructor.
func bare(open func(rel *store.Relation) engine.Engine) func(*store.Relation) (stack, error) {
	return func(rel *store.Relation) (stack, error) { return stack{e: open(rel)}, nil }
}

// runEpisodic measures s. Every episode's stream has the same kinds of op
// in the same places; only the bounds differ. Each episode sets up from a
// heap handed back to the OS, so its set-up time and its op 0 — the first
// query on an untouched engine — are what a fresh process would see.
func (b *bench) runEpisodic(r *result, s episodic) (episodes int, ops []op) {
	n := b.cfg.episodes(s.episodes)
	eps := make([]*episode, 0, n)
	var kernel engine.KernelReport
	var pieces uint64
	mem := markMem()
	start := time.Now()
	for i := 0; i < n; i++ {
		if i >= minEpisodes && !b.cfg.smoke && time.Since(start) > b.cfg.overrun() {
			fmt.Fprintf(b.out, "%s: the box is slow: stopped after %d of %d episodes\n", s.tag, i, n)
			break
		}
		ops = s.stream(b, workload.New(int64(b.cfg.rows), b.streamSeed(s.tag, i)))
		ep := &episode{}
		freshHeap()
		t0 := time.Now()
		st, err := s.open(cloneRelation(b.base))
		ep.setupNs = int64(time.Since(t0))
		if err != nil {
			r.fault(1, "open: "+err.Error())
			return len(eps), ops
		}
		runtime.GC() // a collection must not start inside the first query
		b.runStream(engineTarget(s.layer, "", st.e), ops, ep)
		ep.storage = st.e.Storage()
		k, _ := engine.KernelReportOf(st.e)
		kernel = kernelSum(kernel, k)
		pieces = max(pieces, k.Pieces)
		if s.inspect != nil {
			s.inspect(st.e, r)
		}
		eps = append(eps, ep)

		// The clock has stopped: check the kept answers, op 0's among them.
		final := st.e
		if st.after != nil {
			if final, err = st.after(r); err != nil {
				r.fault(1, err.Error())
			}
		}
		oracleRel := b.base
		if s.writes {
			oracleRel = cloneRelation(b.base)
		}
		oracle := engine.NewScan(oracleRel)
		r.fault(checkStream(oracle, ops, ep.kept), "answer differs from the scan oracle")
		if s.writes && err == nil {
			// A lost insert or a resurrected delete changes the full select.
			all := everything(b.cfg.rows)
			got, _ := final.Query(all)
			want, _ := oracle.Query(all)
			r.Attempted++
			if !sameAnswer(got, want, all.Projs) {
				r.fault(1, "live tuples differ from the oracle after the update stream")
			}
		}
		if st.close != nil {
			st.close(r)
		}
	}
	n = len(eps)
	b.summarizeEpisodes(r, eps, ops)
	var selNs, costNs int64
	for _, ep := range eps {
		selNs += ep.selNs
		costNs += ep.costNs
	}
	if costNs > 0 {
		r.layer("engine.cost_sel_frac", float64(selNs)/float64(costNs))
	}
	kernelCounts(r, kernel, pieces, n*countQueries(ops))
	mem.report(r, n*len(ops))
	return n, ops
}

// keepMax records a per-layer count as the largest value any episode saw.
func keepMax(r *result, name string, v float64) {
	if v > r.PerLayer[name].Value {
		r.layer(name, v)
	}
}

func inspectSideways(e engine.Engine, r *result) {
	st := crackstore.SidewaysStore(e)
	if st == nil {
		return
	}
	maps, tape, lag := 0, 0, 0
	for _, a := range attrs {
		set := st.SetIfExists(a)
		if set == nil {
			continue
		}
		tape = max(tape, set.TapeLen())
		for _, m := range set.Maps() {
			maps++
			lag = max(lag, set.TapeLen()-m.Cursor())
		}
	}
	keepMax(r, "sideways.sets", float64(st.NumSets()))
	keepMax(r, "sideways.maps", float64(maps))
	keepMax(r, "sideways.tape_len_max", float64(tape))
	keepMax(r, "sideways.align_lag_max", float64(lag))
	keepMax(r, "sideways.storage_tuples", float64(st.StorageTuples()))
}

func inspectPartial(e engine.Engine, r *result) {
	st := crackstore.PartialStore(e)
	if st == nil {
		return
	}
	areas := 0
	for _, a := range attrs {
		if set := st.SetIfExists(a); set != nil {
			areas += set.NumAreas()
		}
	}
	keepMax(r, "partial.storage_tuples", float64(st.StorageTuples()))
	keepMax(r, "partial.chunkmap_tuples", float64(st.ChunkMapTuples()))
	keepMax(r, "partial.areas", float64(areas))
	// Headroom is kept as the smallest any episode ended with.
	headroom := 1 - float64(st.StorageTuples())/float64(st.Budget)
	if cur, ok := r.PerLayer["partial.budget_headroom_frac"]; !ok || headroom < cur.Value {
		r.layer("partial.budget_headroom_frac", headroom)
	}
}

func newSideways(rel *store.Relation) engine.Engine { return engine.New(engine.Sideways, rel) }

var exploreCold = episodic{
	tag:      wExploreCold,
	layer:    "engine.Query",
	episodes: exploreColdEpisodes,
	open:     bare(newSideways),
	stream: func(b *bench, g *workload.Gen) []op {
		return cycleQueries(g, b.cfg.perEpisode(exploreQueries), exploreColdBatch, exploreShapes)
	},
	inspect: inspectSideways,
}

func runExploreCold(b *bench, r *result) { b.runEpisodic(r, exploreCold) }

var exploreBudget = episodic{
	tag:      wExploreBudget,
	layer:    "engine.Query",
	episodes: exploreBudgetEpisodes,
	open: bare(func(rel *store.Relation) engine.Engine {
		return engine.NewPartialWithBudget(rel, budgetMaps*rel.NumRows())
	}),
	stream: func(b *bench, g *workload.Gen) []op {
		return cycleQueries(g, b.cfg.perEpisode(exploreQueries), exploreBudgetBatch, budgetShapes)
	},
	inspect: inspectPartial,
}

func runExploreBudget(b *bench, r *result) {
	b.runEpisodic(r, exploreBudget)
	if r.EndToEnd["aux_tuples_per_row"].Value > budgetMaps {
		r.fault(1, fmt.Sprintf("chunk storage ended above the %dx-rows budget", budgetMaps))
	}
}

// updateMixStream is Exp6 on one engine: T1 queries with an HFLV update
// batch every Frequency queries, one LFHV batch, then T1 queries again.
func updateMixStream(b *bench, g *workload.Gen) []op {
	rows := int64(b.cfg.rows)
	queries, batch := b.cfg.perEpisode(updateMixQueries), b.cfg.perEpisode(workload.LFHV.Volume)
	live := newLiveKeys(b.base, 1, rows)
	ops := make([]op, 0, 2*queries+2*(queries+batch))
	for q := 0; q < queries; q++ {
		ops = append(ops, op{kind: opQuery, q: shapeT1.draw(g)})
		if (q+1)%workload.HFLV.Frequency == 0 {
			for u := 0; u < workload.HFLV.Volume; u++ {
				ops = live.update(ops, g, 1, rows)
			}
		}
	}
	for u := 0; u < batch; u++ {
		ops = live.update(ops, g, 1, rows)
	}
	for q := 0; q < queries; q++ {
		ops = append(ops, op{kind: opQuery, q: shapeT1.draw(g)})
	}
	return ops
}

var updateMix = episodic{
	tag:      wUpdateMix,
	layer:    "engine.Query",
	episodes: updateMixEpisodes,
	open:     bare(newSideways),
	stream:   updateMixStream,
	writes:   true,
	inspect:  inspectSideways,
}

func runUpdateMix(b *bench, r *result) { b.runEpisodic(r, updateMix) }

// Ledger passes of the single-client workloads: the same streams, replayed
// against identically seeded fresh state one boundary lower.

// replayBlock is how many ops one boundary runs before the ledger's replay
// hands the stream to the next.
const replayBlock = 50

// replayMeans replays a third as many of s's streams as the workload ran
// against fresh targets made by each of opens, and returns, per open, the
// mean over those episodes of the mean ns per op. Within an episode every
// target has its own fresh state and sees the whole stream in order, but
// they advance through it together, replayBlock ops at a time and taking
// turns at going first, so that a drift in the machine's speed falls on all
// of them alike and cancels in their differences.
func (b *bench) replayMeans(s episodic, opens ...func(rel *store.Relation) target) []float64 {
	n := max(b.cfg.episodes(s.episodes)/3, 1)
	sums := make([]float64, len(opens))
	for i := 0; i < n; i++ {
		ops := s.stream(b, workload.New(int64(b.cfg.rows), b.streamSeed(s.tag, i)))
		freshHeap() // as the episodes of the measured run start
		targets := make([]target, len(opens))
		eps := make([]*episode, len(opens))
		for k, open := range opens {
			targets[k] = open(cloneRelation(b.base))
			eps[k] = &episode{lat: make([]int64, len(ops))}
		}
		for lo, turn := 0, 0; lo < len(ops); lo, turn = lo+replayBlock, turn+1 {
			for j := range targets {
				k := (j + turn) % len(targets)
				b.runOps(targets[k], ops, lo, min(lo+replayBlock, len(ops)), eps[k])
			}
		}
		for k, ep := range eps {
			sums[k] += float64(ep.sumLat()) / float64(len(ops))
		}
	}
	for k := range sums {
		sums[k] /= float64(n)
	}
	return sums
}

func sidewaysTarget(st *sideways.Store) target {
	return target{
		layer: "sideways.MultiSelect", parent: "engine.Query",
		query: func(q engine.Query) (engine.Result, engine.Cost, error) {
			res := st.MultiSelect(q.Preds, q.Projs, q.Disjunctive)
			return engine.Result{Cols: res.Cols, N: res.N}, engine.Cost{}, nil
		},
		insert: st.Insert,
		delete: st.Delete,
	}
}

func partialTarget(st *partial.Store) target {
	return target{
		layer: "partial.MultiSelect", parent: "engine.Query",
		query: func(q engine.Query) (engine.Result, engine.Cost, error) {
			res := st.MultiSelect(q.Preds, q.Projs, q.Disjunctive)
			return engine.Result{Cols: res.Cols, N: res.N}, engine.Cost{}, nil
		},
		insert: st.Insert,
		delete: st.Delete,
	}
}

// ledgerMapLayer prices the map layer and the engine above it for one
// single-client workload: engine.self_ns is what Engine.Query adds to the
// map layer's MultiSelect on the same streams.
func (b *bench) ledgerMapLayer(r *result, s episodic, mapMetric string, mapTarget func(rel *store.Relation) target) {
	ns := b.replayMeans(s, mapTarget, func(rel *store.Relation) target {
		st, _ := s.open(rel) // the map-layer workloads open bare engines, which cannot fail
		return engineTarget(s.layer, "", st.e)
	})
	r.layer(mapMetric, ns[0])
	r.layer("engine.query_ns", ns[1])
	r.layer("engine.self_ns", ns[1]-ns[0])
}

func ledgerExploreCold(b *bench, r *result) {
	b.ledgerMapLayer(r, exploreCold, "sideways.multiselect_ns", func(rel *store.Relation) target {
		return sidewaysTarget(sideways.NewStore(rel))
	})
	b.microCrack(r)
}

func ledgerExploreBudget(b *bench, r *result) {
	b.ledgerMapLayer(r, exploreBudget, "partial.multiselect_ns", func(rel *store.Relation) target {
		st := partial.NewStore(rel)
		st.Budget = budgetMaps * rel.NumRows()
		return partialTarget(st)
	})
	b.microCrack(r)
}

func ledgerUpdateMix(b *bench, r *result) {
	b.ledgerMapLayer(r, updateMix, "sideways.multiselect_ns", func(rel *store.Relation) target {
		return sidewaysTarget(sideways.NewStore(rel))
	})
	b.microRipple(r)
}
