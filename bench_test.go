// Benchmarks that regenerate each table and figure of the paper at reduced
// scale — one testing.B benchmark per artifact. Run all with
//
//	go test -bench=. -benchmem
//
// and use `crackbench -exp <id>` / cmd/tpchbench for full-size runs with
// the printed rows/series. Serving, remote and durability numbers come
// from `bash benchmark/run.sh`, not from here.
package crackstore_test

import (
	"testing"

	"crackstore/internal/exp"
	"crackstore/internal/workload"
)

func benchCfg(rows, queries int) exp.Config {
	return exp.Config{Rows: rows, Queries: queries, Seed: 1}
}

// BenchmarkExp1_Fig4a regenerates Figure 4(a) and the Section 3.6 cost
// breakdown table: varying tuple reconstructions across the four engines.
func BenchmarkExp1_Fig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Exp1(benchCfg(20000, 50))
	}
}

// BenchmarkExp2_Fig4b regenerates Figure 4(b): varying selectivity.
func BenchmarkExp2_Fig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Exp2(benchCfg(20000, 60))
	}
}

// BenchmarkExp3_Reordering regenerates the Section 3.6 reordering inset.
func BenchmarkExp3_Reordering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Exp3(benchCfg(100000, 0))
	}
}

// BenchmarkExp4_Fig5 regenerates Figure 5: join queries with multiple
// selections and reconstructions.
func BenchmarkExp4_Fig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Exp4(benchCfg(10000, 25))
	}
}

// BenchmarkExp5_Fig6 regenerates Figure 6: skewed workload.
func BenchmarkExp5_Fig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Exp5(benchCfg(20000, 100))
	}
}

// BenchmarkExp6HFLV_Fig7a regenerates Figure 7(a): high-frequency
// low-volume updates.
func BenchmarkExp6HFLV_Fig7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Exp6(benchCfg(10000, 100), workload.HFLV)
	}
}

// BenchmarkExp6LFHV_Fig7b regenerates Figure 7(b): low-frequency
// high-volume updates (scaled: 50 updates every 50 queries).
func BenchmarkExp6LFHV_Fig7b(b *testing.B) {
	sc := workload.UpdateScenario{Name: "LFHV", Frequency: 50, Volume: 50}
	for i := 0; i < b.N; i++ {
		exp.Exp6(benchCfg(10000, 100), sc)
	}
}

// BenchmarkFig9_StorageThresholds regenerates Figure 9: full vs partial
// maps under storage restrictions.
func BenchmarkFig9_StorageThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig9(benchCfg(10000, 100))
	}
}

// BenchmarkFig10_Adaptation regenerates Figure 10: workload adaptation
// under a storage threshold.
func BenchmarkFig10_Adaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig10(benchCfg(10000, 100))
	}
}

// BenchmarkFig11_SequenceTotals regenerates Figure 11: cumulative costs
// over result sizes and thresholds.
func BenchmarkFig11_SequenceTotals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig11(benchCfg(5000, 50))
	}
}

// BenchmarkFig12_ChangeRate regenerates Figure 12: workload change rate.
func BenchmarkFig12_ChangeRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig12(benchCfg(5000, 100))
	}
}

// BenchmarkFig13_Alignment regenerates Figure 13: alignment cost profiles.
func BenchmarkFig13_Alignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig13(benchCfg(10000, 100))
	}
}

// BenchmarkFig14_TPCH regenerates Figure 14 and the Section 5 improvement
// table at a reduced scale factor with 5 parameter variations.
func BenchmarkFig14_TPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig14(exp.Config{Seed: 1}, 0.002, 5)
	}
}

// BenchmarkTPCHMixed regenerates the Section 5 mixed-workload figure.
func BenchmarkTPCHMixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Mixed(exp.Config{Seed: 1}, 0.002, 3)
	}
}
