package sideways

import (
	"math"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// This file implements the operator extensions Section 3.4 sketches as
// natural beneficiaries of the clustering information in cracker maps:
// aggregates that read only the relevant end pieces ("a max can consider
// only the last piece of a map") and a partitioned cracker join ("a join
// can be performed in a partitioned like way exploiting disjoint ranges in
// the input maps").

// MaxAttr returns the maximum live value of attr. When a cracker map for
// the attribute exists, only the last non-empty piece (plus merged pending
// updates) is inspected instead of the whole column.
func (s *Store) MaxAttr(attr string) (Value, bool) {
	return s.extremeAttr(attr, true)
}

// MinAttr returns the minimum live value of attr, reading only the first
// non-empty piece of an existing cracker map.
func (s *Store) MinAttr(attr string) (Value, bool) {
	return s.extremeAttr(attr, false)
}

func (s *Store) extremeAttr(attr string, wantMax bool) (Value, bool) {
	set := s.sets[attr]
	if set == nil || set.MostAlignedMap() == nil {
		return s.scanExtreme(attr, wantMax)
	}
	// Collect the piece boundaries of the most aligned map. Values ascend
	// across pieces, so the extreme lives in the outermost non-empty piece
	// after pending updates for that range are merged.
	var bounds []crackindex.Bound
	set.MostAlignedMap().pairs.Idx.Walk(func(b crackindex.Bound, _ int) { bounds = append(bounds, b) })
	if len(bounds) == 0 {
		return s.scanExtreme(attr, wantMax)
	}
	// Walk pieces from the relevant end inward. Each probe issues a
	// set-level query for the piece's value range so pending updates merge
	// and alignment stays correct; the probed area is the piece only.
	for i := range bounds {
		var pred store.Pred
		if wantMax {
			b := bounds[len(bounds)-1-i]
			pred = store.Pred{Lo: b.V, Hi: math.MaxInt64, LoIncl: b.Incl, HiIncl: true}
		} else {
			b := bounds[i]
			pred = store.Pred{Lo: math.MinInt64, Hi: b.V, LoIncl: true, HiIncl: !b.Incl}
		}
		if v, ok := s.pieceExtreme(set, pred, wantMax); ok {
			return v, true
		}
	}
	// Every piece probe came back empty: fall back to the full range.
	return s.pieceExtreme(set, FullRange, wantMax)
}

// pieceExtreme queries one value range on the set's most aligned map and
// reduces its head values.
func (s *Store) pieceExtreme(set *Set, pred store.Pred, wantMax bool) (Value, bool) {
	tail := ""
	if m := set.MostAlignedMap(); m != nil {
		tail = m.tailAttr
	}
	found := false
	var best Value
	for _, w := range set.Query(pred, []string{tail}, true) {
		for _, v := range w.Head[w.Lo:w.Hi] {
			if !found || wantMax && v > best || !wantMax && v < best {
				best, found = v, true
			}
		}
	}
	return best, found
}

// scanExtreme is the fallback when no cracking knowledge exists: a full
// scan of the base column skipping tombstoned tuples, plus pending state
// is irrelevant because base columns are append-only and tombstones are
// global.
func (s *Store) scanExtreme(attr string, wantMax bool) (Value, bool) {
	col := s.rel.MustColumn(attr)
	found := false
	var best Value
	for key, v := range col.Vals {
		if s.rel.IsDeleted(key) {
			continue
		}
		if !found || (wantMax && v > best) || (!wantMax && v < best) {
			best = v
			found = true
		}
	}
	return best, found
}

// KeyPair is one cracker-join match: the tuple keys of the left and right
// inputs.
type KeyPair struct {
	LKey, RKey Value
}

// CrackerJoin joins ls.lAttr = rs.rAttr and returns matching key pairs.
// Instead of building one hash table over a full column, it range-
// partitions both sides by cracking their key maps on shared boundaries —
// disjoint ranges join independently with cache-sized hash tables, and the
// partitioning work is retained as cracking knowledge for future queries
// (Section 3.4's "partitioned like way" join).
func CrackerJoin(ls *Store, lAttr string, rs *Store, rAttr string, parts int) []KeyPair {
	if parts < 1 {
		parts = 1
	}
	lLo, lHi := ls.colStats(lAttr)
	rLo, rHi := rs.colStats(rAttr)
	lo, hi := lLo, lHi
	if rLo < lo {
		lo = rLo
	}
	if rHi > hi {
		hi = rHi
	}
	var out []KeyPair
	if hi < lo {
		return out
	}
	width := (hi - lo + Value(parts)) / Value(parts)
	if width < 1 {
		width = 1
	}
	lSet := ls.Set(lAttr)
	rSet := rs.Set(rAttr)
	for p := 0; p < parts; p++ {
		plo := lo + Value(p)*width
		phi := plo + width
		pred := store.Pred{Lo: plo, Hi: phi, LoIncl: true, HiIncl: false}
		if p == parts-1 {
			pred.Hi = hi
			pred.HiIncl = true
		}
		lHead, lTail := keysOf(lSet.Query(pred, []string{""}, true))
		rHead, rTail := keysOf(rSet.Query(pred, []string{""}, true))
		if len(lHead) == 0 || len(rHead) == 0 {
			continue
		}
		// Hash join within the partition: build on the smaller side.
		if len(lHead) <= len(rHead) {
			ht := make(map[Value][]Value, len(lHead))
			for i, v := range lHead {
				ht[v] = append(ht[v], lTail[i])
			}
			for i, v := range rHead {
				for _, lk := range ht[v] {
					out = append(out, KeyPair{LKey: lk, RKey: rTail[i]})
				}
			}
		} else {
			ht := make(map[Value][]Value, len(rHead))
			for i, v := range rHead {
				ht[v] = append(ht[v], rTail[i])
			}
			for i, v := range lHead {
				for _, rk := range ht[v] {
					out = append(out, KeyPair{LKey: lTail[i], RKey: rk})
				}
			}
		}
	}
	return out
}

// keysOf returns the qualifying attribute values and tuple keys of the
// key-map windows wins, with heads, as the set-level select over the key
// maps (Set.Query) or its read-only twin (windowsRO) builds them: views into
// the key map when there is one window.
func keysOf(wins []Window) (vals, keys []Value) {
	if len(wins) == 1 {
		w := wins[0]
		return w.Head[w.Lo:w.Hi], w.Tails[0][w.Lo:w.Hi]
	}
	for _, w := range wins {
		vals = append(vals, w.Head[w.Lo:w.Hi]...)
		keys = append(keys, w.Tails[0][w.Lo:w.Hi]...)
	}
	return vals, keys
}
