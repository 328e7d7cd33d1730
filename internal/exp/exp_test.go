package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"crackstore/internal/workload"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	return Config{Rows: 5000, Queries: 30, Seed: 1, W: nil}
}

func TestSamplePoints(t *testing.T) {
	pts := SamplePoints(1000)
	if pts[0] != 0 {
		t.Fatal("first sample must be query 1")
	}
	if pts[len(pts)-1] != 999 {
		t.Fatal("last sample must be the final query")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Fatal("samples must be strictly increasing")
		}
	}
	if len(SamplePoints(5)) != 5 {
		t.Fatalf("SamplePoints(5) = %v", SamplePoints(5))
	}
}

func TestMedianTail(t *testing.T) {
	y := []time.Duration{100, 1, 2, 3, 4, 5}
	if m := medianTail(y, 5); m != 3 {
		t.Fatalf("medianTail = %d, want 3", m)
	}
}

func TestExp1ShapeAndOutput(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.W = &buf
	res := Exp1(cfg)
	for _, name := range []string{"presorted", "sideways", "selcrack", "scan"} {
		if len(res.LastCost[name]) != 3 {
			t.Fatalf("%s: %d TR points, want 3", name, len(res.LastCost[name]))
		}
	}
	if !strings.Contains(buf.String(), "Exp1 cost breakdown") {
		t.Fatal("missing breakdown table in output")
	}
	// Shape: converged sideways must not lose badly to selection cracking
	// at 8 TRs (the paper's core claim). Medians over the tail keep the
	// check robust to scheduler noise at test scale.
	side := medianTail(res.Series["sideways"][2], 10)
	selc := medianTail(res.Series["selcrack"][2], 10)
	if side > selc*3 {
		t.Errorf("converged sideways (%v) should not be 3x slower than selcrack (%v)", side, selc)
	}
}

func TestExp2Shape(t *testing.T) {
	cfg := tiny()
	res := Exp2(cfg)
	if len(res.Relative) != 6 {
		t.Fatalf("%d selectivities", len(res.Relative))
	}
	// Converged sideways must be at least as fast as plain scan for the
	// 50% selectivity series (index 3).
	side := medianTail(res.Sideways[3], 10)
	scan := medianTail(res.Scan[3], 10)
	if side > scan*2 {
		t.Errorf("converged sideways %v vs scan %v", side, scan)
	}
}

func TestExp3Shape(t *testing.T) {
	// 1 and 2 rows: the 20% intermediate rounds to zero tuples, which used
	// to divide by zero.
	for _, rows := range []int{50000, 1, 2} {
		cfg := tiny()
		cfg.Rows = rows
		res := Exp3(cfg)
		if len(res.Cost) != 4 {
			t.Fatalf("rows=%d: %d strategies, want 4", rows, len(res.Cost))
		}
		for name, ys := range res.Cost {
			if len(ys) != 4 {
				t.Fatalf("rows=%d: %s has %d points", rows, name, len(ys))
			}
		}
	}
}

func TestExp4Runs(t *testing.T) {
	cfg := tiny()
	cfg.Queries = 10
	res := Exp4(cfg)
	for _, name := range []string{"presorted", "sideways", "selcrack", "scan"} {
		if len(res.Total[name]) != 10 {
			t.Fatalf("%s total series length %d", name, len(res.Total[name]))
		}
		for i := range res.Total[name] {
			if res.Total[name][i] < res.PostTR[name][i] {
				t.Fatal("total must include post TR")
			}
		}
	}
}

func TestExp5Runs(t *testing.T) {
	cfg := tiny()
	res := Exp5(cfg)
	if len(res.Series["sideways"]) != cfg.Queries {
		t.Fatal("wrong series length")
	}
}

func TestExp6Runs(t *testing.T) {
	cfg := tiny()
	sc := workload.UpdateScenario{Name: "test", Frequency: 5, Volume: 5}
	res := Exp6(cfg, sc)
	for _, name := range []string{"sideways", "selcrack", "scan"} {
		if len(res.Series[name]) != cfg.Queries {
			t.Fatalf("%s series length %d", name, len(res.Series[name]))
		}
	}
}

func TestFig9BudgetRespected(t *testing.T) {
	cfg := tiny()
	cfg.Rows = 4000
	cfg.Queries = 50
	res := Fig9(cfg)
	if len(res.Runs) != 3 {
		t.Fatal("3 budget settings expected")
	}
	// Partial maps must respect the 2x budget throughout.
	budget := res.Budgets[2]
	for q, s := range res.Runs[2][1].Storage {
		if s > budget {
			t.Fatalf("partial storage %d exceeds budget %d at query %d", s, budget, q)
		}
	}
	// Partial maps must use no more storage than full maps with no limit.
	lastFull := res.Runs[0][0].Storage[cfg.Queries-1]
	lastPart := res.Runs[0][1].Storage[cfg.Queries-1]
	if lastPart > lastFull {
		t.Errorf("partial (%d) should use less storage than full (%d)", lastPart, lastFull)
	}
}

func TestFig10SkewUsesLessStorage(t *testing.T) {
	cfg := tiny()
	cfg.Rows = 4000
	cfg.Queries = 50
	res := Fig10(cfg)
	// With S=0.1%, partial materializes only tiny chunks: far below full.
	lastFull := res.Uniform1K[0].Storage[cfg.Queries-1]
	lastPart := res.Uniform1K[1].Storage[cfg.Queries-1]
	if lastPart >= lastFull {
		t.Errorf("selective partial storage %d should be < full %d", lastPart, lastFull)
	}
}

func TestFig11And12Run(t *testing.T) {
	cfg := tiny()
	cfg.Rows = 3000
	cfg.Queries = 20
	r11 := Fig11(cfg)
	if len(r11.Total) != len(r11.Fracs) {
		t.Fatal("fig11 shape")
	}
	r12 := Fig12(cfg)
	if len(r12.Changes) == 0 {
		t.Fatal("fig12 empty")
	}
}

func TestFig13Runs(t *testing.T) {
	cfg := tiny()
	cfg.Rows = 3000
	cfg.Queries = 40
	res := Fig13(cfg)
	if len(res.Runs) != 3 {
		t.Fatal("3 change rates expected")
	}
}

func TestFig14SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	cfg := Config{Rows: 0, Queries: 0, Seed: 1, W: &buf}
	res := Fig14(cfg, 0.001, 3)
	if len(res.Series) != 12 {
		t.Fatalf("%d queries, want 12", len(res.Series))
	}
	for qid, m := range res.Series {
		for name, ys := range m {
			if len(ys) != 3 {
				t.Fatalf("Q%d %s: %d runs", qid, name, len(ys))
			}
		}
	}
	if !strings.Contains(buf.String(), "improvement over plain scan") {
		t.Fatal("missing improvement table")
	}
}

func TestMixedSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Seed: 1}
	res := Mixed(cfg, 0.001, 2)
	if len(res.Relative) != 24 {
		t.Fatalf("%d executions, want 24", len(res.Relative))
	}
}
