package sideways

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"crackstore/internal/bitvec"
	"crackstore/internal/store"
)

// The word-at-a-time finish kernels against the operators' definition: one
// Pred.Matches per tuple.

// checkFinishKernels runs select_create_bv under p1, select_refine_bv under
// p2 and reconstruct over area [lo, hi) of tail, each against its per-tuple
// reference.
func checkFinishKernels(t *testing.T, tail []Value, lo, hi int, p1, p2 store.Pred) {
	t.Helper()
	bv := SelectCreateBV(tail, lo, hi, p1)
	if bv.Len() != hi-lo {
		t.Fatalf("create: %d bits for area [%d, %d)", bv.Len(), lo, hi)
	}
	refOf := func(preds ...store.Pred) *bitvec.Vector {
		ref := bitvec.New(hi - lo)
		for i := lo; i < hi; i++ {
			if !slices.ContainsFunc(preds, func(p store.Pred) bool { return !p.Matches(tail[i]) }) {
				ref.Set(i - lo)
			}
		}
		return ref
	}
	ref := refOf(p1)
	same := func(op string, p store.Pred) {
		t.Helper()
		for i := 0; i < hi-lo; i++ {
			if bv.Get(i) != ref.Get(i) {
				t.Fatalf("%s %v over [%d, %d): bit %d (value %d) is %v", op, p, lo, hi, i, tail[lo+i], bv.Get(i))
			}
		}
		if bv.Count() != ref.Count() {
			t.Fatalf("%s %v over [%d, %d): bits set past the area", op, p, lo, hi)
		}
	}
	same("create", p1)

	SelectRefineBV(tail, lo, hi, p2, bv)
	ref = refOf(p1, p2)
	same("refine", p2)

	var want []Value
	for i := lo; i < hi; i++ {
		if ref.Get(i - lo) {
			want = append(want, tail[i])
		}
	}
	got := make([]Value, bv.Count())
	if bv.Gather(got, tail[lo:hi]); !slices.Equal(got, want) {
		t.Fatalf("reconstruct over [%d, %d) under %v and %v: %d values, want %d", lo, hi, p1, p2, len(got), len(want))
	}
}

// edgeValues are the values and bounds the closed-interval normalisation
// can get wrong: the ends of the domain and their neighbours.
var edgeValues = []Value{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}

// predOf builds every shape from two bounds: half-open, open, closed, point
// and inverted (lower bound above the upper one).
func predOf(shape int, a, b Value) store.Pred {
	lo, hi := min(a, b), max(a, b)
	switch shape % 6 {
	case 0:
		return store.Range(lo, hi)
	case 1:
		return store.Open(lo, hi)
	case 2:
		return store.Pred{Lo: lo, Hi: hi, LoIncl: true, HiIncl: true}
	case 3:
		return store.Pred{Lo: lo, Hi: hi, HiIncl: true}
	case 4:
		return store.Point(a)
	}
	return store.Pred{Lo: hi, Hi: lo, LoIncl: true, HiIncl: true}
}

func TestFinishKernelsMatchPerTupleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Every shape over every pair of edge bounds, on a tail holding every
	// edge value, at offsets and lengths around the word size.
	tail := make([]Value, 200)
	for i := range tail {
		tail[i] = edgeValues[rng.Intn(len(edgeValues))]
	}
	for shape := 0; shape < 6; shape++ {
		for _, a := range edgeValues {
			for _, b := range edgeValues {
				p := predOf(shape, a, b)
				for _, area := range [][2]int{{0, 0}, {0, 1}, {0, 64}, {1, 64}, {3, 130}, {63, 128}, {64, 200}, {5, 200}} {
					checkFinishKernels(t, tail, area[0], area[1], p, predOf(shape+1, b, a))
				}
			}
		}
	}
	// Random areas of a small-domain tail; the refinement keeps few.
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(300)
		tail := make([]Value, n)
		for i := range tail {
			tail[i] = Value(rng.Intn(41) - 20)
		}
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		pick := func() Value { return Value(rng.Intn(45) - 22) }
		checkFinishKernels(t, tail, lo, hi, predOf(rng.Intn(6), pick(), pick()), predOf(rng.Intn(6), pick(), pick()))
	}
	// Refining an already sparse vector: whole words are empty.
	for i := range tail {
		tail[i] = Value(i)
	}
	checkFinishKernels(t, tail, 3, 197, store.Point(150), store.Range(0, 200))
	checkFinishKernels(t, tail, 0, 200, store.Range(70, 72), store.Open(70, 72))
}

func FuzzFinishKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 251, 0, 0, 9}, uint8(1), uint8(5), int64(0), int64(3), uint8(0), int64(math.MinInt64), int64(math.MaxInt64), uint8(2))
	f.Add(make([]byte, 130), uint8(63), uint8(66), int64(-1), int64(0), uint8(1), int64(0), int64(0), uint8(4))
	f.Add([]byte{255, 128, 127}, uint8(0), uint8(3), int64(math.MaxInt64), int64(math.MaxInt64), uint8(1), int64(math.MinInt64), int64(math.MinInt64), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, lo, span uint8, a1, b1 int64, s1 uint8, a2, b2 int64, s2 uint8) {
		// A byte is a value near zero or near either end of the domain.
		tail := make([]Value, len(raw))
		for i, b := range raw {
			switch v := Value(int8(b)); {
			case b%3 == 0:
				tail[i] = math.MinInt64 + (v + 128)
			case b%3 == 1:
				tail[i] = math.MaxInt64 - (v + 128)
			default:
				tail[i] = v
			}
		}
		l := min(int(lo), len(tail))
		h := min(l+int(span), len(tail))
		checkFinishKernels(t, tail, l, h, predOf(int(s1), a1, b1), predOf(int(s2), a2, b2))
	})
}

// BenchmarkSelectCreateBV: select_create_bv over a 10k-tuple area at 50%
// selectivity, the T2 shape of the exploration workloads.
func BenchmarkSelectCreateBV(b *testing.B) {
	tail, pred := benchTail()
	b.SetBytes(int64(len(tail)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBV = SelectCreateBV(tail, 0, len(tail), pred)
	}
}

// BenchmarkReconstructMarked: reconstruct of one projection through the
// bit vector BenchmarkSelectCreateBV builds.
func BenchmarkReconstructMarked(b *testing.B) {
	tail, pred := benchTail()
	bv := SelectCreateBV(tail, 0, len(tail), pred)
	pl := PlanMulti(nil, []AttrPred{{Attr: "A", Pred: FullRange}}, []string{"B"}, false)
	wins := []Window{{Lo: 0, Hi: len(tail), Tails: [][]Value{tail}}}
	b.SetBytes(int64(len(tail)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRes = pl.Reconstruct(wins, []*bitvec.Vector{bv})
	}
}

var (
	benchBV  *bitvec.Vector
	benchRes Result
)

func benchTail() ([]Value, store.Pred) {
	rng := rand.New(rand.NewSource(2))
	tail := make([]Value, 10000)
	for i := range tail {
		tail[i] = Value(rng.Intn(1000000))
	}
	return tail, store.Range(250000, 750000)
}
