package crack

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// locateByFullScan is the reference the key-map case of Locate replaced:
// probe a key set for every tuple of the whole map.
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

// locateProbe draws a predicate that stresses Locate's range choice: a
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
// starting from the uncracked map — Locate on a tail of tuple keys (a key
// map) returns exactly the positions a scan of the whole map returns, while
// reading no more than the pieces the predicate's bounds fall into.
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
			heads := map[int]Value{nextKey + 5: 1, nextKey + 9: 2}
			matching := 0
			for i, k := range p.Tail {
				if m := pred.Matches(p.Head[i]); (m && rng.Intn(3) == 0) || (!m && rng.Intn(20) == 0) {
					keys = append(keys, int(k))
					heads[int(k)] = p.Head[i]
					if m {
						matching++
					}
				}
			}
			keys = append(keys, nextKey+5, nextKey+9)
			sort.Ints(keys)
			rows := make([]Row, len(keys))
			for i, k := range keys {
				rows[i] = Row{Head: heads[k], Tails: []Value{Value(k)}}
			}

			n := p.Len()
			span := p.Idx.PieceFor(pred.UpperBound(), n).Hi - p.Idx.PieceFor(pred.LowerBound(), n).Lo
			before := p.Stats.Scanned
			got, _ := p.Locate(pred, rows, p.Tail)
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

// TestLocateByValueMatchesFullScan: on a map and an aligned follower over a
// tiny domain, where many tuples are equal on both columns, Locate by head
// and two tails is unique exactly when a scan of the whole map finds every
// row at one position and no position for two rows, and then returns the
// positions that scan finds.
func TestLocateByValueMatchesFullScan(t *testing.T) {
	const domain = 6
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPairs(rng, 20+rng.Intn(200), domain)
		other := make([]Value, p.Len())
		for i := range other {
			other[i] = Value(rng.Int63n(domain))
		}
		q := WrapPairs(append([]Value(nil), p.Head...), other)
		for step := 0; step < 30; step++ {
			pred := locateProbe(rng, p, domain)
			// Rows of tuples the map holds, matching pred or not, and rows
			// of random values: any of them may equal several tuples.
			var rows []Row
			for i := range p.Head {
				if rng.Intn(25) == 0 {
					rows = append(rows, Row{Head: p.Head[i], Tails: []Value{p.Tail[i], q.Tail[i]}})
				}
			}
			for k := rng.Intn(2); k > 0; k-- {
				rows = append(rows, Row{Head: rng.Int63n(domain), Tails: []Value{rng.Int63n(int64(p.Len())), rng.Int63n(domain)}})
			}
			// The reference: every position of every row, over the whole map.
			var want []int
			unique := len(rows) > 0
			owner := make(map[int]bool)
			for _, r := range rows {
				found := 0
				for i := range p.Head {
					if pred.Matches(p.Head[i]) && p.Head[i] == r.Head && p.Tail[i] == r.Tails[0] && q.Tail[i] == r.Tails[1] {
						found++
						if owner[i] {
							unique = false
						}
						owner[i] = true
						want = append(want, i)
					}
				}
				unique = unique && found == 1
			}
			sort.Ints(want)
			got, ok := p.Locate(pred, rows, p.Tail, q.Tail)
			if len(rows) == 0 {
				if !ok || got != nil {
					return false
				}
			} else if ok != unique || ok && !slices.Equal(got, want) {
				return false
			}
			p.CrackRangeWith(locateProbe(rng, p, domain), []*Pairs{q})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
