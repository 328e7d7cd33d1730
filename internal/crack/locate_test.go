package crack

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// locateByFullScan is the reference LocateKeys replaced: probe a key set for
// every tuple of the whole map.
func locateByFullScan(p *Pairs, pred store.Pred, keys []int) []int {
	want := make(map[Value]bool, len(keys))
	for _, k := range keys {
		want[Value(k)] = true
	}
	var positions []int
	for i, k := range p.Tail {
		if want[k] && pred.Matches(p.Head[i]) {
			positions = append(positions, i)
		}
	}
	return positions
}

// locateProbe draws a predicate that stresses LocateKeys' range choice: a
// random range, one whose bounds sit exactly on existing boundaries (so
// PieceFor returns degenerate LoExact pieces), a point, the whole domain, or
// an empty range, with random inclusivity.
func locateProbe(rng *rand.Rand, p *Pairs, domain int64) store.Pred {
	var edges []Value
	p.Idx.Walk(func(b crackindex.Bound, _ int) { edges = append(edges, b.V) })
	pick := func() Value {
		if len(edges) > 0 && rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Int63n(domain)
	}
	pred := store.Pred{Lo: pick(), Hi: pick(), LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0}
	switch rng.Intn(8) {
	case 0:
		pred = store.Point(pred.Lo)
	case 1:
		pred = store.Pred{Lo: math.MinInt64, Hi: math.MaxInt64, LoIncl: true, HiIncl: true}
	case 2: // usually empty (Lo > Hi)
	default:
		if pred.Lo > pred.Hi {
			pred.Lo, pred.Hi = pred.Hi, pred.Lo
		}
	}
	return pred
}

// TestLocateKeysMatchesFullScan: over random interleavings of cracks, ripple
// inserts and ripple deletes on a map with heavily duplicated head values —
// starting from the uncracked map — LocateKeys returns exactly the positions
// a scan of the whole map returns, while reading no more than the pieces the
// predicate's bounds fall into.
func TestLocateKeysMatchesFullScan(t *testing.T) {
	const domain = 40
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPairs(rng, 50+rng.Intn(300), domain)
		nextKey := p.Len()
		for step := 0; step < 40; step++ {
			pred := locateProbe(rng, p, domain)
			// Keys as the callers pick them (tuples matching pred), plus
			// keys of non-matching tuples and keys the map does not hold.
			var keys []int
			matching := 0
			for i, k := range p.Tail {
				if m := pred.Matches(p.Head[i]); (m && rng.Intn(3) == 0) || (!m && rng.Intn(20) == 0) {
					keys = append(keys, int(k))
					if m {
						matching++
					}
				}
			}
			keys = append(keys, nextKey+5, nextKey+9)
			sort.Ints(keys)

			n := p.Len()
			span := p.Idx.PieceFor(pred.UpperBound(), n).Hi - p.Idx.PieceFor(pred.LowerBound(), n).Lo
			before := p.Stats.Scanned
			got := p.LocateKeys(pred, keys)
			want := locateByFullScan(p, pred, keys)
			if len(got) != matching || len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			if scanned := p.Stats.Scanned - before; scanned != max(span, 0) {
				return false
			}

			switch rng.Intn(3) {
			case 0:
				p.CrackRange(locateProbe(rng, p, domain))
			case 1:
				p.RippleInsert(rng.Int63n(domain), Value(nextKey))
				nextKey++
			case 2:
				if len(got) > 0 {
					p.RippleDeleteBatch(got)
				}
			}
			if !p.CheckPieces() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
