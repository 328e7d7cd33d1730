package exp

import (
	"fmt"
	"math/rand"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/presort"
	"crackstore/internal/reorder"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// Exp1Result reproduces Figure 4(a) and the Section 3.6 cost-breakdown
// table: response time of the 100th query for 2/4/8 tuple reconstructions.
type Exp1Result struct {
	TRCounts []int
	// LastCost[engine][i] is the cost of the final query with TRCounts[i]
	// tuple reconstructions.
	LastCost map[string][]time.Duration
	// Breakdown[engine] is the Sel/TR/Total split at the largest TR count.
	Breakdown map[string]engine.Cost
	// Series[engine][i] is the full per-query cost series at TRCounts[i].
	Series map[string][][]time.Duration
	// PrepCost is the presorting cost paid upfront by the presorted engine.
	PrepCost time.Duration
}

// synthDesigns are the series of Figures 4-6, in the order they print.
var synthDesigns = []design{presorted, served(engine.Sideways), served(engine.SelCrack), served(engine.Scan)}

// Exp1 runs query q1 — select max(A2), max(A3), ... where v1 < A1 < v2 —
// with 20% selectivity over a 9-attribute relation (Section 3.6, Exp1).
func Exp1(cfg Config) *Exp1Result {
	base := buildUniform(cfg, "R", 9)
	res := &Exp1Result{
		TRCounts:  []int{2, 4, 8},
		LastCost:  map[string][]time.Duration{},
		Breakdown: map[string]engine.Cost{},
		Series:    map[string][][]time.Duration{},
	}
	for _, d := range synthDesigns {
		name := d.name
		for _, tr := range res.TRCounts {
			e := d.build(cloneRel(base))
			if p, ok := e.(*presort.Engine); ok {
				res.PrepCost = p.Prepare("A1")
			}
			projs := make([]string, tr)
			for i := range projs {
				projs[i] = fmt.Sprintf("A%d", i+2)
			}
			gen := genFor(cfg, 100)
			var last engine.Cost
			series := make([]time.Duration, 0, cfg.Queries)
			for q := 0; q < cfg.Queries; q++ {
				pred := gen.Range(0.2)
				last = runMaxQuery(e, []engine.AttrPred{{Attr: "A1", Pred: pred}}, projs)
				series = append(series, last.Total())
			}
			res.LastCost[name] = append(res.LastCost[name], last.Total())
			res.Series[name] = append(res.Series[name], series)
			if tr == res.TRCounts[len(res.TRCounts)-1] {
				res.Breakdown[name] = last
			}
		}
	}
	cfg.logf("\n== Exp1 (Fig 4a): response time of query %d ==\n", cfg.Queries)
	cfg.logf("%-12s", "#TR")
	for _, tr := range res.TRCounts {
		cfg.logf("%14d", tr)
	}
	cfg.logf("\n")
	for _, ds := range synthDesigns {
		cfg.logf("%-12s", ds.name)
		for _, d := range res.LastCost[ds.name] {
			cfg.logf("%14s", fmtDur(d))
		}
		cfg.logf("\n")
	}
	cfg.logf("\n== Exp1 cost breakdown at %d TRs (cf. Section 3.6 table) ==\n",
		res.TRCounts[len(res.TRCounts)-1])
	cfg.logf("%-12s%12s%12s%12s\n", "engine", "Tot", "TR", "Sel")
	for _, d := range synthDesigns {
		b := res.Breakdown[d.name]
		cfg.logf("%-12s%12s%12s%12s\n", d.name, fmtDur(b.Total()), fmtDur(b.TR), fmtDur(b.Sel))
	}
	cfg.logf("(presorting cost excluded from presorted: %s)\n", fmtDur(res.PrepCost))
	// Export the full per-query series at the largest TR count, which the
	// table above only samples.
	var series []Series
	for _, d := range synthDesigns {
		if ss := res.Series[d.name]; len(ss) > 0 {
			series = append(series, Series{Name: d.name, Y: ss[len(ss)-1]})
		}
	}
	cfg.reportExportError(cfg.csvSeries("exp1_fig_4a_per_query", "query", series))
	return res
}

// Exp2Result reproduces Figure 4(b): per-query cost of sideways cracking
// relative to the plain scan engine while varying selectivity.
type Exp2Result struct {
	Selectivities []float64 // 0 = point queries
	// Relative[i][q] = sideways cost / scan cost at query q.
	Relative [][]float64
	// Sideways and Scan hold the raw series for shape assertions.
	Sideways, Scan [][]time.Duration
}

// Exp2 runs q1 with 2 tuple reconstructions across selectivities from point
// queries to 90% (Section 3.6, Exp2).
func Exp2(cfg Config) *Exp2Result {
	base := buildUniform(cfg, "R", 3)
	res := &Exp2Result{Selectivities: []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9}}
	projs := []string{"A2", "A3"}
	for _, sel := range res.Selectivities {
		scanE := engine.New(engine.Scan, cloneRel(base))
		sideE := engine.New(engine.Sideways, cloneRel(base))
		gen1 := genFor(cfg, 200)
		gen2 := genFor(cfg, 200)
		rel := make([]float64, cfg.Queries)
		sideY := make([]time.Duration, cfg.Queries)
		scanY := make([]time.Duration, cfg.Queries)
		for q := 0; q < cfg.Queries; q++ {
			var pred1, pred2 store.Pred
			if sel == 0 {
				pred1, pred2 = gen1.Point(), gen2.Point()
			} else {
				pred1, pred2 = gen1.Range(sel), gen2.Range(sel)
			}
			sc := runMaxQuery(scanE, []engine.AttrPred{{Attr: "A1", Pred: pred1}}, projs)
			sd := runMaxQuery(sideE, []engine.AttrPred{{Attr: "A1", Pred: pred2}}, projs)
			scanY[q] = sc.Total()
			sideY[q] = sd.Total()
			if sc.Total() > 0 {
				rel[q] = float64(sd.Total()) / float64(sc.Total())
			}
		}
		res.Relative = append(res.Relative, rel)
		res.Sideways = append(res.Sideways, sideY)
		res.Scan = append(res.Scan, scanY)
	}
	cfg.logf("\n== Exp2 (Fig 4b): sideways cost relative to plain scan ==\n")
	cfg.logf("%-8s", "query")
	for _, s := range res.Selectivities {
		if s == 0 {
			cfg.logf("%10s", "point")
		} else {
			cfg.logf("%9.0f%%", s*100)
		}
	}
	cfg.logf("\n")
	for _, i := range SamplePoints(cfg.Queries) {
		cfg.logf("%-8d", i+1)
		for si := range res.Selectivities {
			cfg.logf("%10.3f", res.Relative[si][i])
		}
		cfg.logf("\n")
	}
	return res
}

// Exp3Result reproduces the Section 3.6 "Reordering" inset: tuple
// reconstruction cost for 1-8 projections under four strategies.
type Exp3Result struct {
	TRCounts []int
	// Cost[strategy][i] for TRCounts[i] reconstructions.
	Cost map[string][]time.Duration
}

// Exp3 measures ordered TR (plain), unordered TR (selection cracking),
// sort + ordered TR, and radix-cluster + clustered TR.
func Exp3(cfg Config) *Exp3Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Rows
	resultSize := max(1, n/5) // 20% selectivity intermediate; at least one tuple
	cols := make([]*store.Column, 8)
	for i := range cols {
		vals := make([]Value, n)
		for j := range vals {
			vals[j] = Value(rng.Int63n(int64(n)))
		}
		cols[i] = store.NewColumn(fmt.Sprintf("A%d", i+2), vals)
	}
	ordered := make([]int, resultSize)
	stride := n / resultSize
	for i := range ordered {
		ordered[i] = i * stride
	}
	unordered := append([]int(nil), ordered...)
	rng.Shuffle(len(unordered), func(i, j int) { unordered[i], unordered[j] = unordered[j], unordered[i] })

	res := &Exp3Result{TRCounts: []int{1, 2, 4, 8}, Cost: map[string][]time.Duration{}}
	clusterSpan := 4096
	for _, k := range res.TRCounts {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			store.Reconstruct(cols[i], ordered)
		}
		res.Cost["ordered (plain)"] = append(res.Cost["ordered (plain)"], time.Since(t0))

		t0 = time.Now()
		for i := 0; i < k; i++ {
			store.Reconstruct(cols[i], unordered)
		}
		res.Cost["unordered (selcrack)"] = append(res.Cost["unordered (selcrack)"], time.Since(t0))

		t0 = time.Now()
		sorted := reorder.Sort(unordered)
		for i := 0; i < k; i++ {
			store.Reconstruct(cols[i], sorted)
		}
		res.Cost["sort + TR"] = append(res.Cost["sort + TR"], time.Since(t0))

		t0 = time.Now()
		clustered := reorder.RadixCluster(unordered, clusterSpan, n)
		for i := 0; i < k; i++ {
			store.Reconstruct(cols[i], clustered)
		}
		res.Cost["radix + TR"] = append(res.Cost["radix + TR"], time.Since(t0))
	}
	cfg.logf("\n== Exp3: reordering intermediates (TR cost) ==\n")
	cfg.logf("%-24s", "#TR")
	for _, k := range res.TRCounts {
		cfg.logf("%12d", k)
	}
	cfg.logf("\n")
	for _, name := range []string{"ordered (plain)", "unordered (selcrack)", "sort + TR", "radix + TR"} {
		cfg.logf("%-24s", name)
		for _, d := range res.Cost[name] {
			cfg.logf("%12s", fmtDur(d))
		}
		cfg.logf("\n")
	}
	return res
}

// Exp4Result reproduces Figure 5: join query q2 with three selections and
// two post-join reconstructions per side.
type Exp4Result struct {
	// Total, PreJoin, PostTR per engine: per-query series.
	Total, PreJoin, PostTR map[string][]time.Duration
	PrepCost               time.Duration
}

// Exp4 runs q2 over two 7-attribute relations with 50/30/20% conjunctive
// selectivities per side (Section 3.6, Exp4).
func Exp4(cfg Config) *Exp4Result {
	cfgR := cfg
	cfgR.Seed = cfg.Seed
	relR := buildUniform(cfgR, "R", 7)
	cfgS := cfg
	cfgS.Seed = cfg.Seed + 1
	relS := buildUniform(cfgS, "S", 7)

	res := &Exp4Result{
		Total:   map[string][]time.Duration{},
		PreJoin: map[string][]time.Duration{},
		PostTR:  map[string][]time.Duration{},
	}
	for _, d := range synthDesigns {
		le := d.build(cloneRel(relR))
		re := d.build(cloneRel(relS))
		if lp, ok := le.(*presort.Engine); ok {
			res.PrepCost = lp.Prepare("A5") + re.(*presort.Engine).Prepare("A5")
		}
		gen := genFor(cfg, 300)
		name := d.name
		for q := 0; q < cfg.Queries; q++ {
			// Most selective predicate first (A5: 20%, A4: 30%, A3: 50%).
			lPreds := []engine.AttrPred{
				{Attr: "A5", Pred: gen.Range(0.2)},
				{Attr: "A4", Pred: gen.Range(0.3)},
				{Attr: "A3", Pred: gen.Range(0.5)},
			}
			rPreds := []engine.AttrPred{
				{Attr: "A5", Pred: gen.Range(0.2)},
				{Attr: "A4", Pred: gen.Range(0.3)},
				{Attr: "A3", Pred: gen.Range(0.5)},
			}
			_, jc := engine.JoinMax(
				engine.JoinSide{E: le, Preds: lPreds, JoinAttr: "A7", Projs: []string{"A1", "A2"}},
				engine.JoinSide{E: re, Preds: rPreds, JoinAttr: "A7", Projs: []string{"A1", "A2"}},
			)
			res.Total[name] = append(res.Total[name], jc.Total())
			res.PreJoin[name] = append(res.PreJoin[name], jc.PreSel)
			res.PostTR[name] = append(res.PostTR[name], jc.PostTR)
		}
	}
	for _, part := range []struct {
		title string
		data  map[string][]time.Duration
	}{
		{"Exp4 (Fig 5a): join query total cost", res.Total},
		{"Exp4 (Fig 5b): select and TR cost before join", res.PreJoin},
		{"Exp4 (Fig 5c): TR cost after join", res.PostTR},
	} {
		var series []Series
		for _, d := range synthDesigns {
			series = append(series, Series{Name: d.name, Y: part.data[d.name]})
		}
		printSeries(cfg, part.title, "query", series)
	}
	cfg.logf("(presorting cost: %s)\n", fmtDur(res.PrepCost))
	return res
}

// Exp5Result reproduces Figure 6: skewed workload.
type Exp5Result struct {
	Series   map[string][]time.Duration
	PrepCost time.Duration
}

// Exp5 runs q3 — select max(B), max(C) where v1<A<v2 — with 20%
// selectivity where 9/10 queries hit the first half of the domain.
func Exp5(cfg Config) *Exp5Result {
	base := buildUniform(cfg, "R", 3)
	res := &Exp5Result{Series: map[string][]time.Duration{}}
	projs := []string{"A2", "A3"}
	for _, d := range synthDesigns {
		e := d.build(cloneRel(base))
		if p, ok := e.(*presort.Engine); ok {
			res.PrepCost = p.Prepare("A1")
		}
		gen := genFor(cfg, 400)
		name := d.name
		for q := 0; q < cfg.Queries; q++ {
			pred := gen.Skewed(0.2, 0.5, 0.9)
			c := runMaxQuery(e, []engine.AttrPred{{Attr: "A1", Pred: pred}}, projs)
			res.Series[name] = append(res.Series[name], c.Total())
		}
	}
	var series []Series
	for _, d := range synthDesigns {
		series = append(series, Series{Name: d.name, Y: res.Series[d.name]})
	}
	printSeries(cfg, "Exp5 (Fig 6): skewed workload", "query", series)
	cfg.logf("(presorting cost: %s)\n", fmtDur(res.PrepCost))
	return res
}

// Exp6Result reproduces Figure 7: query performance under updates.
type Exp6Result struct {
	Scenario string
	Series   map[string][]time.Duration
}

// Exp6 runs q3 queries interleaved with updates per the HFLV or LFHV
// scenario. Presorted data is excluded, as in the paper (no efficient way
// to maintain sorted copies under updates).
func Exp6(cfg Config, sc workload.UpdateScenario) *Exp6Result {
	base := buildUniform(cfg, "R", 3)
	res := &Exp6Result{Scenario: sc.Name, Series: map[string][]time.Duration{}}
	kinds := []engine.Kind{engine.Sideways, engine.SelCrack, engine.Scan}
	projs := []string{"A2", "A3"}
	for _, k := range kinds {
		e := engine.New(k, cloneRel(base))
		gen := genFor(cfg, 500)
		urng := rand.New(rand.NewSource(cfg.Seed + 600))
		live := make([]int, cfg.Rows)
		for i := range live {
			live[i] = i
		}
		name := k.String()
		for q := 0; q < cfg.Queries; q++ {
			if q > 0 && q%sc.Frequency == 0 {
				for u := 0; u < sc.Volume; u++ {
					i := urng.Intn(len(live))
					e.Delete(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					key := e.Insert(gen.Value(), gen.Value(), gen.Value())
					live = append(live, key)
				}
			}
			pred := gen.Range(0.2)
			c := runMaxQuery(e, []engine.AttrPred{{Attr: "A1", Pred: pred}}, projs)
			res.Series[name] = append(res.Series[name], c.Total())
		}
	}
	var series []Series
	for _, k := range kinds {
		series = append(series, Series{Name: k.String(), Y: res.Series[k.String()]})
	}
	printSeries(cfg, "Exp6 (Fig 7): updates, scenario "+sc.Name, "query", series)
	return res
}
