package exp

import (
	"time"

	"crackstore/internal/sideways"
	"crackstore/internal/store"
)

// AblationResult quantifies the design choices of Sections 3.2-4.1 by
// running identical workloads with exactly one switch flipped.
type AblationResult struct {
	// Pairs maps an ablation name to {paper design, ablated design} costs.
	Pairs map[string][2]time.Duration
}

// Ablations runs all ablation pairs at the configured scale.
func Ablations(cfg Config) *AblationResult {
	res := &AblationResult{Pairs: map[string][2]time.Duration{}}

	// Adaptive (lazy) vs eager alignment: nine cold maps, one hot map.
	alignment := func(eager bool) time.Duration {
		st := sideways.NewStore(buildUniform(cfg, "R", 10))
		st.EagerAlignment = eager
		gen := genFor(cfg, 900)
		projs := []string{"A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10"}
		t0 := time.Now()
		for _, proj := range projs {
			st.SelectProject("A1", gen.Range(0.1), []string{proj})
		}
		for q := 0; q < cfg.Queries; q++ {
			st.SelectProject("A1", gen.Range(0.1), []string{"A2"})
		}
		return time.Since(t0)
	}
	res.Pairs["alignment lazy vs eager (3.2)"] = [2]time.Duration{alignment(false), alignment(true)}

	// Histogram vs naive map-set choice: first predicate unselective.
	setChoice := func(naive bool) time.Duration {
		st := sideways.NewStore(buildUniform(cfg, "R", 4))
		st.NaiveSetChoice = naive
		gen := genFor(cfg, 901)
		t0 := time.Now()
		for q := 0; q < cfg.Queries; q++ {
			st.MultiSelect([]sideways.AttrPred{
				{Attr: "A1", Pred: gen.Range(0.9)},
				{Attr: "A2", Pred: gen.Range(0.02)},
			}, []string{"A3", "A4"}, false)
		}
		return time.Since(t0)
	}
	res.Pairs["set choice histogram vs naive (3.3)"] = [2]time.Duration{setChoice(false), setChoice(true)}

	// Partial vs forced-full chunk alignment: heavily cracked area, then
	// covered queries over other tails.
	partialAlign := func(force bool) time.Duration {
		st := sideways.NewPartialStore(buildUniform(cfg, "R", 6))
		st.ForceFullAlignment = force
		gen := genFor(cfg, 902)
		for q := 0; q < cfg.Queries; q++ {
			st.SelectProject("A1", gen.Range(0.05), []string{"A2"})
		}
		wide := store.Range(1, int64(cfg.Rows))
		tails := []string{"A3", "A4", "A5", "A6"}
		t0 := time.Now()
		for q := 0; q < cfg.Queries/2; q++ {
			st.SelectProject("A1", wide, []string{tails[q%len(tails)]})
		}
		return time.Since(t0)
	}
	res.Pairs["chunk alignment partial vs full (4.1)"] = [2]time.Duration{partialAlign(false), partialAlign(true)}

	// Head dropping: recovery cost on re-crack vs keeping heads.
	headDrop := func(drop bool) time.Duration {
		st := sideways.NewPartialStore(buildUniform(cfg, "R", 2))
		gen := genFor(cfg, 903)
		for q := 0; q < cfg.Queries; q++ {
			st.SelectProject("A1", gen.Range(0.05), []string{"A2"})
		}
		if drop {
			st.DropHead()
		}
		t0 := time.Now()
		for q := 0; q < cfg.Queries/4; q++ {
			st.SelectProject("A1", gen.Range(0.05), []string{"A2"})
		}
		return time.Since(t0)
	}
	res.Pairs["head retention vs drop+recover (4.1)"] = [2]time.Duration{headDrop(false), headDrop(true)}

	cfg.logf("\n== Ablations: paper design vs ablated (same workload) ==\n")
	cfg.logf("%-42s%14s%14s%8s\n", "design choice", "paper", "ablated", "ratio")
	for _, name := range []string{
		"alignment lazy vs eager (3.2)",
		"set choice histogram vs naive (3.3)",
		"chunk alignment partial vs full (4.1)",
		"head retention vs drop+recover (4.1)",
	} {
		pair := res.Pairs[name]
		ratio := 0.0
		if pair[0] > 0 {
			ratio = float64(pair[1]) / float64(pair[0])
		}
		cfg.logf("%-42s%14s%14s%7.2fx\n", name, fmtDur(pair[0]), fmtDur(pair[1]), ratio)
	}
	return res
}
