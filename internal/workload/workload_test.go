package workload

import (
	"testing"
	"testing/quick"
)

func TestRangeWidth(t *testing.T) {
	g := New(10000, 1)
	for i := 0; i < 100; i++ {
		p := g.Range(0.2)
		if p.Hi-p.Lo != 2000 {
			t.Fatalf("width = %d, want 2000", p.Hi-p.Lo)
		}
		if p.Lo < 1 || p.Hi > 10001 {
			t.Fatalf("range [%d,%d) outside domain", p.Lo, p.Hi)
		}
	}
}

func TestSkewedHotProbability(t *testing.T) {
	g := New(10000, 3)
	hot := 0
	n := 2000
	for i := 0; i < n; i++ {
		p := g.Skewed(0.05, 0.5, 0.9)
		if p.Hi <= 5001 {
			hot++
		}
	}
	frac := float64(hot) / float64(n)
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction = %.3f, want ~0.9", frac)
	}
}

func TestPointAndValues(t *testing.T) {
	g := New(100, 4)
	p := g.Point()
	if p.Lo != p.Hi || !p.LoIncl || !p.HiIncl {
		t.Fatalf("Point = %+v", p)
	}
	vs := g.Values(50)
	for _, v := range vs {
		if v < 1 || v > 100 {
			t.Fatalf("value %d outside domain", v)
		}
	}
}

func TestBatchCycle(t *testing.T) {
	cases := []struct{ q, batch, types, want int }{
		{0, 100, 5, 0}, {99, 100, 5, 0}, {100, 100, 5, 1},
		{499, 100, 5, 4}, {500, 100, 5, 0}, {999, 100, 5, 4},
	}
	for _, c := range cases {
		if got := BatchCycle(c.q, c.batch, c.types); got != c.want {
			t.Errorf("BatchCycle(%d,%d,%d) = %d, want %d", c.q, c.batch, c.types, got, c.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := New(1000, 42)
	b := New(1000, 42)
	for i := 0; i < 20; i++ {
		if a.Range(0.1) != b.Range(0.1) {
			t.Fatal("same seed must give identical streams")
		}
	}
}

// Property: generated ranges always lie within the requested window.
func TestQuickRangeIn(t *testing.T) {
	f := func(seed int64) bool {
		g := New(10000, seed)
		for i := 0; i < 20; i++ {
			p := g.RangeIn(2000, 8000, 0.05)
			if p.Lo < 2000 || p.Hi > 8001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRangeInClampsWideFractions is the regression test for the width
// clamp: when frac*Domain exceeds the window hi-lo, the range must not run
// past hi (it used to start at lo with the full unclamped width).
func TestRangeInClampsWideFractions(t *testing.T) {
	g := New(10000, 7)
	for i := 0; i < 50; i++ {
		p := g.RangeIn(2000, 2500, 0.2) // frac*Domain = 2000 > 500
		if p.Lo < 2000 || p.Hi > 2501 {
			t.Fatalf("range [%d,%d) escapes window [2000,2500]", p.Lo, p.Hi)
		}
		if p.Hi-p.Lo != 500 {
			t.Fatalf("width = %d, want clamped 500", p.Hi-p.Lo)
		}
	}
	// Skewed hot regions narrower than the query fraction rely on the
	// same clamp.
	for i := 0; i < 50; i++ {
		p := g.Skewed(0.5, 0.1, 1.0) // hot region [1,1000], frac 0.5
		if p.Hi > 1001 {
			t.Fatalf("hot-region range [%d,%d) escapes [1,1000]", p.Lo, p.Hi)
		}
	}
}

// TestSequentialSweep: the sweep visits adjacent windows left to right,
// stays inside the domain, and wraps deterministically.
func TestSequentialSweep(t *testing.T) {
	g := New(10000, 1)
	for q := 0; q < 100; q++ {
		p := g.Sequential(q, 0.01)
		if p.Lo != int64(1+q*100) || p.Hi != p.Lo+100 {
			t.Fatalf("q=%d: got [%d,%d), want [%d,%d)", q, p.Lo, p.Hi, 1+q*100, 101+q*100)
		}
	}
	// Wrap: query 100 restarts at the domain start.
	if p := g.Sequential(100, 0.01); p.Lo != 1 {
		t.Fatalf("wrap: got lo=%d, want 1", p.Lo)
	}
}

// TestZoomInHalves: each level halves the window around the target and the
// sequence restarts after bottoming out.
func TestZoomInHalves(t *testing.T) {
	g := New(1<<14, 1)
	p0 := g.ZoomIn(0)
	if p0.Hi-p0.Lo != g.Domain {
		t.Fatalf("level 0 covers %d, want the whole domain %d", p0.Hi-p0.Lo, g.Domain)
	}
	prev := p0.Hi - p0.Lo
	restarted := false
	for q := 1; q < 40; q++ {
		p := g.ZoomIn(q)
		w := p.Hi - p.Lo
		if p.Lo < 1 || p.Hi > g.Domain+1 {
			t.Fatalf("q=%d: [%d,%d) outside domain", q, p.Lo, p.Hi)
		}
		switch {
		case w == g.Domain:
			restarted = true
		case w != prev/2:
			t.Fatalf("q=%d: width %d, want %d (half of previous)", q, w, prev/2)
		}
		prev = w
	}
	if !restarted {
		t.Fatal("zoom-in never restarted from the full domain")
	}
}

// TestPeriodicRepeats: the q-th and (q+period)-th predicates are identical
// and in-domain.
func TestPeriodicRepeats(t *testing.T) {
	g := New(10000, 1)
	const period = 100
	for q := 0; q < period; q++ {
		a := g.Periodic(q, period, 0.005)
		b := g.Periodic(q+period, period, 0.005)
		if a != b {
			t.Fatalf("q=%d: %+v != %+v one period later", q, a, b)
		}
		if a.Lo < 1 || a.Hi > 10001 {
			t.Fatalf("q=%d: [%d,%d) outside domain", q, a.Lo, a.Hi)
		}
	}
}

// TestPatternNames pins the -pattern flag names and that every listed name
// resolves.
func TestPatternNames(t *testing.T) {
	for _, name := range PatternNames() {
		f, ok := Pattern(name, 0.01)
		if !ok || f == nil {
			t.Fatalf("pattern %q did not resolve", name)
		}
		g := New(10000, 1)
		for q := 0; q < 10; q++ {
			p := f(g, q)
			if p.Lo < 1 || p.Hi > 10001 {
				t.Fatalf("%s q=%d: [%d,%d) outside domain", name, q, p.Lo, p.Hi)
			}
		}
	}
	if _, ok := Pattern("radix", 0.01); ok {
		t.Fatal("unknown pattern resolved")
	}
}
