package bitvec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAllClear(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Count() != 0 {
		t.Fatalf("Count = %d, want 0", v.Count())
	}
	for i := 0; i < 130; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
	}
}

func TestNewSet(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000} {
		v := NewSet(n)
		if v.Count() != n {
			t.Fatalf("NewSet(%d).Count = %d", n, v.Count())
		}
	}
}

func TestSetClearGet(t *testing.T) {
	v := New(200)
	v.Set(0)
	v.Set(63)
	v.Set(64)
	v.Set(199)
	for _, i := range []int{0, 63, 64, 199} {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.Count() != 4 {
		t.Fatalf("Count = %d, want 4", v.Count())
	}
	v.Clear(63)
	if v.Get(63) {
		t.Error("bit 63 should be clear")
	}
	if v.Count() != 3 {
		t.Fatalf("Count = %d, want 3", v.Count())
	}
}

func TestSetRange(t *testing.T) {
	for _, tc := range []struct{ n, lo, hi int }{
		{10, 0, 10}, {10, 3, 7}, {200, 60, 70}, {200, 0, 200},
		{200, 64, 128}, {200, 63, 129}, {200, 5, 5}, {65, 64, 65},
	} {
		v := New(tc.n)
		v.SetRange(tc.lo, tc.hi)
		if v.Count() != tc.hi-tc.lo {
			t.Errorf("SetRange(%d,%d) on n=%d: count %d, want %d",
				tc.lo, tc.hi, tc.n, v.Count(), tc.hi-tc.lo)
		}
		for i := 0; i < tc.n; i++ {
			want := i >= tc.lo && i < tc.hi
			if v.Get(i) != want {
				t.Fatalf("SetRange(%d,%d): bit %d = %v, want %v", tc.lo, tc.hi, i, v.Get(i), want)
			}
		}
	}
}

func TestForEachSetOrder(t *testing.T) {
	v := New(500)
	want := []int{3, 64, 65, 130, 499}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	v.ForEachSet(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Set(5)
	b := a.Clone()
	b.Set(6)
	if a.Get(6) {
		t.Fatal("Clone is not independent")
	}
	if !b.Get(5) {
		t.Fatal("Clone lost bit")
	}
}

// Property: Count equals the number of distinct indices set.
func TestQuickCountMatchesSets(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		rng := rand.New(rand.NewSource(seed))
		v := New(n)
		set := map[int]bool{}
		for i := 0; i < 100; i++ {
			j := rng.Intn(n)
			if rng.Intn(2) == 0 {
				v.Set(j)
				set[j] = true
			} else {
				v.Clear(j)
				delete(set, j)
			}
		}
		if v.Count() != len(set) {
			return false
		}
		for j := range set {
			if !v.Get(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FromRange, AndRange and Gather are their per-element
// definitions, for any interval (inverted and domain-wide ones too) and any
// length; a Gather through NewSet takes the whole-word path.
func TestQuickRangeKernels(t *testing.T) {
	bounds := []int64{math.MinInt64, -3, 0, 2, math.MaxInt64}
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw) % 300
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(9) - 4)
			if rng.Intn(8) == 0 {
				vals[i] = bounds[rng.Intn(len(bounds))]
			}
		}
		lo1, hi1 := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
		lo2, hi2 := int64(rng.Intn(9)-4), int64(rng.Intn(9)-4)
		v := FromRange(vals, lo1, hi1)
		w := NewSet(n)
		w.AndRange(vals, lo2, hi2)
		both := v.Clone()
		both.AndRange(vals, lo2, hi2)
		var want []int64
		for i, x := range vals {
			in1, in2 := lo1 <= x && x <= hi1, lo2 <= x && x <= hi2
			if v.Get(i) != in1 || w.Get(i) != in2 || both.Get(i) != (in1 && in2) {
				return false
			}
			if in1 && in2 {
				want = append(want, x)
			}
		}
		got := make([]int64, n)
		all := make([]int64, n)
		return slices.Equal(got[:both.Gather(got, vals)], want) &&
			NewSet(n).Gather(all, vals) == n && slices.Equal(all, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeKernelsLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"AndRange": func() { New(10).AndRange(make([]int64, 9), 0, 1) },
		"Gather":   func() { New(10).Gather(make([]int64, 10), make([]int64, 11)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted values of another length", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkSetRange(b *testing.B) {
	v := New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.SetRange(1000, 1<<19)
		v.ClearAll()
	}
}

func BenchmarkCount(b *testing.B) {
	v := NewSet(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.Count()
	}
}
