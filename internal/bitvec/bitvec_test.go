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

// TestSetClearGet: Set sets one bit, word boundaries included, and an
// empty interval clears every bit.
func TestSetClearGet(t *testing.T) {
	v := New(200)
	v.Set(0)
	v.Set(63)
	v.Set(64)
	v.Set(199)
	for i := 0; i < 200; i++ {
		if want := i == 0 || i == 63 || i == 64 || i == 199; v.Get(i) != want {
			t.Errorf("bit %d = %v, want %v", i, v.Get(i), want)
		}
	}
	if v.Count() != 4 {
		t.Fatalf("Count = %d, want 4", v.Count())
	}
	v.AndRange(make([]int64, 200), 1, 0)
	if v.Count() != 0 {
		t.Fatalf("Count = %d after an empty interval, want 0", v.Count())
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
			v.Set(j)
			set[j] = true
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
// length; a Gather through an all-ones vector takes the whole-word path.
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
		w := FromRange(vals, math.MinInt64, math.MaxInt64)
		w.AndRange(vals, lo2, hi2)
		both := FromRange(vals, lo1, hi1)
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
			FromRange(vals, math.MinInt64, math.MaxInt64).Gather(all, vals) == n && slices.Equal(all, vals)
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

func BenchmarkCount(b *testing.B) {
	v := FromRange(make([]int64, 1<<20), 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Count()
	}
}
