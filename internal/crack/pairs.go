// Package crack implements database cracking (CIDR 2007): incremental
// physical reorganization of a column as a side effect of query processing,
// plus the Ripple update algorithm (SIGMOD 2007) the paper's Section 3.5
// builds on.
//
// The central type is Pairs, a two-column table (head, tail) with a cracker
// index over the head. Every cracking structure in this repository is a
// Pairs under the hood:
//
//	cracker column  C_A   — head = A values, tail = tuple keys
//	cracker map     M_AB  — head = A values, tail = B values
//	chunk map       H_A   — head = A values, tail = tuple keys
//	key map         M_Akey— head = A values, tail = tuple keys
//
// Cracking is implemented as deterministic pure functions of (piece
// contents, predicate). Determinism is the invariant that makes sideways
// cracking's adaptive alignment correct: two maps of the same set that
// replay the same sequence of cracks end up with identical head orderings
// (Section 3.2).
//
// Maps that sit at one point of one tape therefore need not each pay for a
// crack. CrackRangeWith cracks a leader together with followers: pairs of
// the leader's length whose head values and index boundaries equal the
// leader's. Every decision is made once, on the leader's head: the
// misplaced positions, the order of a range crack's two partitions, policy
// pivots and boundaries. Every swap block and boundary is then applied to
// each follower as well, so each ends exactly as its own CrackRange would
// leave it. A follower reads no head; it counts the tuples it moves in
// Stats.Moved and nothing else. It need not even have one: a follower
// without a head column (and without an index) is a tail that only its
// leader's head and index position, and every swap moves its tail alone.
//
// A crack pays for the piece it lands in and nothing else, and every crack
// runs one kernel: a two-ended block partition (Edelkamp and Weiß,
// "BlockQuicksort", ESA 2016). Blocks scan inward from both ends of the
// piece, the positions of misplaced tuples are packed into two L1-resident
// buffers without branching, and the k-th misplaced tuple from the left
// swaps with the k-th from the right. That is the layout of the textbook
// two-pointer partition, with the fewest moves a swap-based partition can
// make (two per misplaced tuple), in one pass over the head and with no
// per-tuple branch on the data. CrackRange partitions against both bounds
// of a range predicate; when both fall into the same uncracked piece — the
// common cold-start case — the whole piece is partitioned at one bound and
// the remainder at the other, the bound that leaves the smaller remainder
// in a sample of the piece going first. The head is then read about 1.25
// times for a narrow range; tails are touched only where tuples swap, and
// nothing is allocated. Otherwise each bound cracks its own piece in two.
// Which path is taken, and which bound goes first, depends only on the
// cracker-index state and the piece's head values, both functions of the
// replayed operation sequence, so the choice is identical across aligned
// maps and the alignment invariant is preserved.
//
// Updates use the Ripple algorithm. RippleInsertBatch merges pending tuples
// in a single pass (one index walk, one bulk boundary shift) and is defined
// to produce exactly the layout that arrival-order sequential RippleInsert
// calls would; RippleDeleteBatch removes positions and produces the layout
// of per-tuple RippleDelete calls from the highest position down. The
// per-tuple kernels are the references the batch kernels are tested
// against. Where a ripple update puts and takes tuples depends only on the
// leader's head values, its boundaries and the positions, so both batch
// kernels take followers, as CrackRangeWith does: the moves are decided
// once, on the leader, and applied to every column of the leader and of
// each follower, a tail alone or a tail with a head. An insert follower
// brings its own tail values for the new tuples (RippleInsertKeys reads
// them from its base column or takes the keys).
//
// Pairs.Policy selects an adaptive pivot policy (see Policy): the
// Stochastic and Capped policies pre-split pathologically large pieces at
// auxiliary pivots before the query's own crack, so convergence no longer
// depends on the query pattern. Auxiliary pivots are ordinary index
// boundaries; probes and SelectRO benefit from them immediately.
package crack

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// KernelStats counts partition work. Tests use it to bound the traffic of a
// range crack and of a pending-delete merge by the pieces they touch;
// benchmarks use it for work accounting.
type KernelStats struct {
	InTwo   int // crack-in-two partitions (one bound, one piece)
	InThree int // same-piece range cracks (the piece at one bound, the remainder at the other)
	Visited int // tuples partitions read: each reads its whole range once
	Moved   int // tuples stored to a new position (a swap counts 2)
	Aux     int // auxiliary policy pivots introduced (see Policy)
	Scanned int // tuples examined by Locate
}

// Add accumulates o into s (aggregation across columns/maps/chunks).
func (s *KernelStats) Add(o KernelStats) {
	s.InTwo += o.InTwo
	s.InThree += o.InThree
	s.Visited += o.Visited
	s.Moved += o.Moved
	s.Aux += o.Aux
	s.Scanned += o.Scanned
}

// Pairs is a two-column table with a cracker index over the head column.
type Pairs struct {
	Head []Value
	Tail []Value
	Idx  *crackindex.Index

	// Policy selects the adaptive pivot policy; the zero value is Default
	// (crack only at query bounds). Change it only between queries: policy
	// decisions are part of the deterministic layout, so structures that
	// must stay aligned have to crack under one policy.
	Policy Policy

	// Stats accumulates kernel partition counters. Resetting it is cheap
	// and does not affect behavior.
	Stats KernelStats

	// followers receive every swap and boundary of the crack in progress;
	// set only for the duration of one CrackRangeWith call.
	followers []*Pairs

	// kernel, when set, replaces the block partition; the package's tests
	// set it to the two-pointer reference the block partition must match.
	kernel func(p *Pairs, c Value, lo, hi int) int
}

// NewPairs returns a Pairs over copies of head and tail. Panics if lengths
// differ.
func NewPairs(head, tail []Value) *Pairs {
	if len(head) != len(tail) {
		panic("crack: head/tail length mismatch")
	}
	h := make([]Value, len(head))
	t := make([]Value, len(tail))
	copy(h, head)
	copy(t, tail)
	return &Pairs{Head: h, Tail: t, Idx: crackindex.New()}
}

// WrapPairs returns a Pairs that takes ownership of head and tail without
// copying.
func WrapPairs(head, tail []Value) *Pairs {
	if len(head) != len(tail) {
		panic("crack: head/tail length mismatch")
	}
	return &Pairs{Head: head, Tail: tail, Idx: crackindex.New()}
}

// Len returns the number of tuples.
func (p *Pairs) Len() int { return len(p.Head) }

// onLeft reports whether value v belongs strictly before boundary b.
func onLeft(v Value, b crackindex.Bound) bool {
	if b.Incl {
		return v < b.V // boundary >= V: left side is < V
	}
	return v <= b.V // boundary > V: left side is <= V
}

// cut returns the exclusive cutoff c with onLeft(v, b) == (v < c), so hot
// partition loops compare against a plain integer instead of re-testing
// b.Incl per tuple. ok is false only for the non-representable boundary
// {MaxInt64, exclusive}, whose left side is the whole domain.
func cut(b crackindex.Bound) (c Value, ok bool) {
	if b.Incl {
		return b.V, true
	}
	if b.V == math.MaxInt64 {
		return 0, false
	}
	return b.V + 1, true
}

// b2v returns 1 for true and 0 for false. The Go compiler lowers this
// pattern to a flag-set instruction, keeping the partition kernel free of
// data-dependent branches.
func b2v(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// crackInTwo partitions positions [lo, hi) so that all values on the left
// of boundary b precede all values at-or-right of it, returning the split
// position. The result is a deterministic function of the piece contents.
// b is no edge of the value domain (edgeAt), so it has a cutoff.
func (p *Pairs) crackInTwo(b crackindex.Bound, lo, hi int) int {
	p.Stats.InTwo++
	c, _ := cut(b)
	return p.partition(c, lo, hi)
}

// predBlock is the block size of the partition kernel: small enough for its
// two position buffers to live in L1, large enough to amortize the
// per-block control branches to noise (one check per predBlock tuples).
const predBlock = 256

// partition moves the values < c of [lo, hi) before the others, returns
// the split position and counts the hi-lo tuples it visits. Every crack of
// every cracking structure comes here.
func (p *Pairs) partition(c Value, lo, hi int) int {
	p.Stats.Visited += hi - lo
	if p.kernel != nil {
		return p.kernel(p, c, lo, hi)
	}
	return p.blockPartition(c, lo, hi)
}

// blockPartition is the partition kernel, a two-ended block partition
// (Edelkamp and Weiß, "BlockQuicksort", ESA 2016): one block scans inward
// from each end, packing the positions of misplaced tuples into an
// L1-resident buffer without branching (store always, advance by the
// comparison's 0/1), and then the buffered pairs swap unconditionally. The
// k-th misplaced tuple from the left is paired with the k-th from the
// right, so the layout is exactly the two-pointer (Hoare) partition's,
// every swap puts two tuples on their final side, and no per-tuple branch
// depends on the data. Each head value of [lo, hi) is read once, apart from
// at most one block that the finish reads again; tails are touched only
// where tuples swap, and nothing is allocated. Followers get each block's
// swaps straight after the leader, while the positions are still in L1;
// their heads are never read.
func (p *Pairs) blockPartition(c Value, lo, hi int) int {
	h := p.Head
	var bufL, bufR [predBlock]int
	const mask = predBlock - 1
	i, j := lo, hi // [i, j) is not scanned yet
	nl, cl, nr, cr := 0, 0, 0, 0
	for i < j {
		if cl == nl {
			nl, cl = 0, 0
			end := min(i+predBlock, j)
			for k, v := range h[i:end] {
				bufL[nl&mask] = i + k
				nl += int(b2v(v >= c))
			}
			i = end
		}
		if cr == nr {
			nr, cr = 0, 0
			start := max(j-predBlock, i)
			blk := h[start:j]
			for k := len(blk) - 1; k >= 0; k-- {
				bufR[nr&mask] = start + k
				nr += int(b2v(blk[k] < c))
			}
			j = start
		}
		sw := min(nl-cl, nr-cr)
		p.swap(bufL[cl:cl+sw], bufR[cr:cr+sw])
		cl += sw
		cr += sw
	}
	// Every tuple is scanned, and one buffer may still hold misplaced
	// positions, all from its last block. The rest of the partition lies
	// between the first of them and the meeting point: rescanning that
	// stretch from the other end fixes the split, and the leftovers on the
	// wrong side of it (found by binary search, as they are sorted) swap
	// with as many rescanned positions.
	switch {
	case cl < nl:
		x := bufL[cl]
		nr = 0
		blk := h[x:i]
		for k := len(blk) - 1; k >= 0; k-- {
			bufR[nr&mask] = x + k
			nr += int(b2v(blk[k] < c))
		}
		m := sort.SearchInts(bufL[cl:nl], x+nr)
		p.swap(bufL[cl:cl+m], bufR[:m])
		return x + nr
	case cr < nr:
		y := bufR[cr]
		nl = 0
		for k, v := range h[j : y+1] {
			bufL[nl&mask] = j + k
			nl += int(b2v(v >= c))
		}
		split := y + 1 - nl
		m := sort.Search(nr-cr, func(k int) bool { return bufR[cr+k] < split })
		p.swap(bufL[:m], bufR[cr:cr+m])
		return split
	}
	return i
}

// swap exchanges the tuples at is[k] and js[k] for every k, in p and in
// every follower, and counts the moves.
func (p *Pairs) swap(is, js []int) {
	swapPositions(p.Head, p.Tail, is, js)
	for _, f := range p.followers {
		swapPositions(f.Head, f.Tail, is, js)
		f.Stats.Moved += 2 * len(is)
	}
	p.Stats.Moved += 2 * len(is)
}

// swapPositions swaps the tuples at is[k] and js[k] for every k. A nil h
// is a follower without a head: only its tail swaps.
func swapPositions(h, t []Value, is, js []int) {
	if h == nil {
		for k, a := range is {
			b := js[k]
			t[a], t[b] = t[b], t[a]
		}
		return
	}
	for k, a := range is {
		b := js[k]
		h[a], h[b] = h[b], h[a]
		t[a], t[b] = t[b], t[a]
	}
}

// CrackBound ensures a physical boundary for b exists, cracking the piece it
// falls into if necessary, and returns the boundary position. The index is
// updated. A no-op if the boundary already exists, and for an edge of the
// value domain, which lies at the start or the end (edgeAt). Under a
// non-default Policy, a piece larger than the policy cap is first split at
// auxiliary pivots.
func (p *Pairs) CrackBound(b crackindex.Bound) int {
	if pos, ok := p.edgeAt(b); ok {
		return pos
	}
	p.applyPolicy(b)
	return p.crackBoundAt(b, p.Idx.PieceFor(b, len(p.Head)))
}

// crackBoundAt is CrackBound for a bound whose piece is already located,
// saving the index descent.
func (p *Pairs) crackBoundAt(b crackindex.Bound, pc crackindex.Piece) int {
	if pc.LoExact {
		return pc.Lo
	}
	pos := p.crackInTwo(b, pc.Lo, pc.Hi)
	p.mark(b, pos)
	return pos
}

// mark records boundary b at position pos in p's index and in every
// follower's that has one: the one place a crack adds a boundary.
func (p *Pairs) mark(b crackindex.Bound, pos int) {
	p.Idx.Insert(b, pos)
	for _, f := range p.followers {
		if f.Idx != nil {
			f.Idx.Insert(b, pos)
		}
	}
}

// orderSamples is how many evenly spaced head values of a piece decide
// which bound of a same-piece range crack partitions the whole piece.
const orderSamples = 64

// crackRangeInPiece partitions the single piece [lo, hi) against both
// bounds of a range: values left of b1, then values in [b1, b2), then values
// at-or-right of b2. Requires b1 < b2. Returns the two split positions.
//
// It is two partitions: the whole piece at one bound, then the remainder at
// the other. The bound partitioned first is the one whose remainder looks
// smaller in a sample of orderSamples evenly spaced head values: the tuples
// right of b1, or those left of b2. The order is a pure function of the
// piece contents, so aligned maps and crack-tape recovery, which both
// replay the same predicates over equal heads, stay layout-identical. With
// n tuples of which nL lie left of the range and nM inside it, the head is
// read n + (n-nL) or n + (nL+nM) times: about 1.25n on average for a narrow
// range placed uniformly.
//
// Neither bound is an edge of the value domain (see edgeAt), so both have a
// cutoff.
func (p *Pairs) crackRangeInPiece(b1, b2 crackindex.Bound, lo, hi int) (int, int) {
	c1, _ := cut(b1)
	c2, _ := cut(b2)
	p.Stats.InThree++
	s, step := min(hi-lo, orderSamples), max((hi-lo)/orderSamples, 1)
	sL, sLM := 0, 0
	for k := lo; k < lo+s*step; k += step {
		v := p.Head[k]
		sL += int(b2v(v < c1))
		sLM += int(b2v(v < c2))
	}
	if s-sL <= sLM {
		lt := p.partition(c1, lo, hi)
		return lt, p.partition(c2, lt, hi)
	}
	gt := p.partition(c2, lo, hi)
	return p.partition(c1, lo, gt), gt
}

// CrackRange physically reorganizes the pairs so that all tuples matching
// pred occupy the contiguous area [lo, hi), which is returned. This is the
// core of operator sideways.select steps (4)-(6) and of crackers.select.
//
// When both bounds of pred fall into the same uncracked piece (always the
// case on a cold column), the piece is partitioned against both bounds by
// one range crack; otherwise each bound cracks its own piece in two. A
// bound at an edge of the value domain is no cut at all: it lies at the
// start or the end of the pairs (edgeAt), and only the other bound
// cracks. The path choice depends only on the index state, so it is
// identical across maps replaying the same operation sequence.
func (p *Pairs) CrackRange(pred store.Pred) (lo, hi int) {
	b1, b2 := pred.LowerBound(), pred.UpperBound()
	if p.Policy.Kind != Default {
		// Pre-split oversized target pieces at auxiliary policy pivots.
		// This runs before the path choice below, so the choice stays a
		// deterministic function of (index state, policy) and aligned maps
		// replaying the same sequence keep identical layouts.
		p.applyPolicy(b1)
		p.applyPolicy(b2)
	}
	lo, edgeLo := p.edgeAt(b1)
	hi, edgeHi := p.edgeAt(b2)
	switch {
	case edgeLo && edgeHi:
	case edgeLo:
		hi = p.crackBoundAt(b2, p.Idx.PieceFor(b2, len(p.Head)))
	case edgeHi:
		lo = p.crackBoundAt(b1, p.Idx.PieceFor(b1, len(p.Head)))
	default:
		pc := p.Idx.PieceFor(b1, len(p.Head))
		if b1.Less(b2) && !pc.LoExact && (!pc.HasHiB || b2.Less(pc.HiBound)) {
			lo, hi = p.crackRangeInPiece(b1, b2, pc.Lo, pc.Hi)
			p.mark(b1, lo)
			p.mark(b2, hi)
			return lo, hi
		}
		lo = p.crackBoundAt(b1, pc) // reuse the descent the probe already paid
		hi = p.crackBoundAt(b2, p.Idx.PieceFor(b2, len(p.Head)))
	}
	if hi < lo {
		// Possible only for empty predicates (e.g. lo > hi); normalize.
		hi = lo
	}
	return lo, hi
}

// edgeAt reports whether b is an edge of the value domain and where it
// lies: {MinInt64, inclusive} before every tuple, {MaxInt64, exclusive}
// after every one. An edge splits nothing, so a range crack neither
// partitions at it nor keeps it in the index; an unbounded range cracks
// at its other bound alone.
func (p *Pairs) edgeAt(b crackindex.Bound) (pos int, ok bool) {
	switch b {
	case crackindex.Bound{V: math.MinInt64, Incl: true}:
		return 0, true
	case crackindex.Bound{V: math.MaxInt64}:
		return len(p.Head), true
	}
	return 0, false
}

// CrackRangeWith is CrackRange on p, the leader, and on followers that sit
// at the same point of the same cracker tape. Precondition: every follower
// has p's length, and p's head values position for position and p's index
// boundaries, or no head and no index at all. Each decision — the
// misplaced positions, the order of the partitions, policy pivots,
// boundaries — is made once, on p's head; every swap is applied to p and
// to each follower, and every boundary is inserted into each follower's
// index that exists. Because the kernel depends only on (piece contents,
// predicate), every follower ends exactly as its own CrackRange would have
// left it. A follower counts the tuples it moves in Stats.Moved
// and nothing else, since it reads no head. Panics if a follower's length
// differs from p's, or if p follows itself.
func (p *Pairs) CrackRangeWith(pred store.Pred, followers []*Pairs) (lo, hi int) {
	for _, f := range followers {
		p.checkFollower(f)
	}
	p.followers = followers
	defer func() { p.followers = nil }()
	return p.CrackRange(pred)
}

// Row is a tuple Locate looks for by value: its head value, and its value in
// each compared tail, in the order Locate is given the tails.
type Row struct {
	Head  Value
	Tails []Value
}

// Locate returns, ascending, the positions of the tuples whose head matches
// pred and that equal one of rows. Row r equals the tuple at position i when
// r.Head is p.Head[i] and r.Tails[j] is tails[j][i] for every j; the tails are
// columns positionally aligned with p (its own Tail, or the tails of maps at
// its tape cursor). This is how a map set turns pending deletions into
// physical positions (Section 3.5): every tuple matching pred lies between
// the start of the piece pred's lower bound falls into and the end of the
// piece its upper bound falls into, so only those pieces are read — pred
// need not be cracked yet — and the cheap head test runs before the row
// search. A key map M_Akey is the case whose compared tail holds tuple keys.
//
// unique reports that every row equals exactly one tuple and no tuple equals
// two rows. When the compared columns may hold equal tuples, only a unique
// answer names the rows' own tuples: a row whose tuple is in the map then
// equals that tuple and no other. Locate stops at the first row that equals
// a second tuple and returns no positions. It counts the tuples it reads in
// p.Stats.Scanned.
func (p *Pairs) Locate(pred store.Pred, rows []Row, tails ...[]Value) (positions []int, unique bool) {
	if len(rows) == 0 {
		return nil, true
	}
	// In head order, a tuple's candidate rows are one binary search away.
	byHead := slices.Clone(rows)
	slices.SortFunc(byHead, func(a, b Row) int { return cmp.Compare(a.Head, b.Head) })
	hits := make([]int, len(byHead))
	n := len(p.Head)
	lo := p.Idx.PieceFor(pred.LowerBound(), n).Lo
	hi := p.Idx.PieceFor(pred.UpperBound(), n).Hi
	for i := lo; i < hi; i++ {
		v := p.Head[i]
		if !pred.Matches(v) {
			continue
		}
		j, found := slices.BinarySearchFunc(byHead, v, func(r Row, v Value) int { return cmp.Compare(r.Head, v) })
		if !found {
			continue
		}
		hit := false
		for ; j < len(byHead) && byHead[j].Head == v; j++ {
			if !byHead[j].at(tails, i) {
				continue
			}
			if hits[j]++; hits[j] > 1 {
				p.Stats.Scanned += i + 1 - lo
				return nil, false
			}
			hit = true
		}
		if hit {
			positions = append(positions, i)
		}
	}
	if hi > lo {
		p.Stats.Scanned += hi - lo
	}
	return positions, len(positions) == len(rows) && !slices.Contains(hits, 0)
}

// at reports whether r's tail values are those of position i of tails.
func (r Row) at(tails [][]Value, i int) bool {
	for j, t := range tails {
		if t[i] != r.Tails[j] {
			return false
		}
	}
	return true
}

// RippleInsert inserts the tuple (v, t) into the piece where v belongs,
// shifting one boundary tuple per subsequent piece (the Ripple algorithm of
// SIGMOD 2007). The column grows by one; index positions are adjusted.
// The placement is deterministic: the new tuple lands at the position of
// the first boundary whose left side v belongs to (i.e. at the end of its
// piece), and exactly those boundaries shift right by one.
func (p *Pairs) RippleInsert(v, t Value) {
	// Boundaries that must end up after the new tuple are exactly those b
	// with onLeft(v, b). Walk yields them in ascending order; they form a
	// suffix of the boundary sequence.
	type bpos struct {
		b   crackindex.Bound
		pos int
	}
	var bps []bpos
	p.Idx.Walk(func(b crackindex.Bound, pos int) {
		if onLeft(v, b) {
			bps = append(bps, bpos{b, pos})
		}
	})
	p.Head = append(p.Head, 0)
	p.Tail = append(p.Tail, 0)
	hole := len(p.Head) - 1
	for i := len(bps) - 1; i >= 0; i-- {
		bp := bps[i].pos
		if bp != hole {
			p.Head[hole], p.Tail[hole] = p.Head[bp], p.Tail[bp]
			hole = bp
		}
	}
	p.Head[hole], p.Tail[hole] = v, t
	for _, e := range bps {
		p.Idx.Insert(e.b, e.pos+1)
	}
}

// Follower is a pairs that RippleInsertBatch moves with its leader, and the
// tail values of the tuples it gains, parallel to the leader's.
type Follower struct {
	*Pairs
	Tails []Value
}

// checkFollower panics unless f is another pairs of p's length, with a head
// of that length or none.
func (p *Pairs) checkFollower(f *Pairs) {
	if f == p || f.Head != nil && len(f.Head) != len(p.Head) || len(f.Tail) != len(p.Tail) {
		panic("crack: a follower must be another pairs of its leader's length")
	}
}

// cuts returns p's index boundaries and their positions, in order.
func (p *Pairs) cuts() (bounds []crackindex.Bound, pos []int) {
	p.Idx.Walk(func(b crackindex.Bound, at int) {
		bounds = append(bounds, b)
		pos = append(pos, at)
	})
	return bounds, pos
}

// shiftIndex moves the k-th boundary of p's index, and of every follower's
// that exists, from position pos to d(k, pos).
func (p *Pairs) shiftIndex(followers []*Pairs, d func(k, pos int) int) {
	shift := func(ix *crackindex.Index) {
		k := -1
		ix.Reposition(func(_ crackindex.Bound, pos int) int {
			k++
			return d(k, pos)
		})
	}
	shift(p.Idx)
	for _, f := range followers {
		if f.Idx != nil {
			shift(f.Idx)
		}
	}
}

// RippleInsertBatch inserts all tuples (vals[i], tails[i]) as if
// RippleInsert were called for each in order, but in a single pass: one
// index walk to collect boundaries, one target search per tuple, one
// piece-wise reshuffle of every column, and one bulk boundary shift. The
// resulting layout is exactly the layout the equivalent sequence of
// RippleInsert calls produces, so tape replays may use either form without
// breaking alignment determinism.
//
// Every follower gains the same tuples at the same positions, with its own
// tail values: where each tuple lands is decided once, on p's head values
// and boundaries, and every column of p and of the followers is reshuffled
// by that one plan. Panics if a follower's length differs from p's, or if p
// follows itself.
func (p *Pairs) RippleInsertBatch(vals, tails []Value, followers ...Follower) {
	fs := make([]*Pairs, len(followers))
	for i, f := range followers {
		p.checkFollower(f.Pairs)
		if len(f.Tails) != len(vals) {
			panic("crack: RippleInsertBatch follower tails length mismatch")
		}
		fs[i] = f.Pairs
	}
	if len(vals) != len(tails) {
		panic("crack: RippleInsertBatch vals/tails length mismatch")
	}
	if len(vals) == 0 {
		return
	}
	bounds, cuts := p.cuts()
	nb := len(cuts)
	// targets[i] is the first boundary whose left side vals[i] belongs to
	// (nb when it belongs after all boundaries): the tuple lands at the end
	// of piece targets[i] and exactly boundaries targets[i].. shift right.
	// onLeft(v, ·) is monotone along the boundary order, so binary search
	// applies.
	pl := insertPlan{cuts: cuts, targets: make([]int, len(vals)), shift: make([]int, nb+1)}
	for i, v := range vals {
		t := sort.Search(nb, func(k int) bool { return onLeft(v, bounds[k]) })
		pl.targets[i] = t
		pl.shift[t]++ // after prefix-summing: #inserts with target <= k
	}
	for k := 1; k <= nb; k++ {
		pl.shift[k] += pl.shift[k-1]
	}
	p.Head, p.Tail = pl.apply(p.Head, vals), pl.apply(p.Tail, tails)
	for _, f := range followers {
		if f.Head != nil {
			f.Head = pl.apply(f.Head, vals)
		}
		f.Tail = pl.apply(f.Tail, f.Tails)
	}
	p.shiftIndex(fs, func(k, pos int) int { return pos + pl.shift[k] })
}

// insertPlan is where a ripple insert batch puts its tuples, decided on the
// leader's head values and boundaries: the boundary positions, each tuple's
// target piece, and the prefix-summed count of tuples at or below each
// piece.
type insertPlan struct {
	cuts, targets, shift []int
}

// apply returns column c with the inserted values ins (parallel to the
// plan's targets) merged in by the plan. Affected pieces are rebuilt from
// the top down. Sequential ripple inserts act on piece k (positions
// [cuts[k-1], cuts[k])) as a queue: an insert targeting k appends its
// tuple; an insert targeting a lower piece rotates the piece's current
// first tuple to its end (one tuple per shifted boundary). Replaying those
// events in arrival order per piece reproduces the sequential layout
// exactly.
func (pl insertPlan) apply(c, ins []Value) []Value {
	n, m, nb := len(c), len(ins), len(pl.cuts)
	c = append(c, make([]Value, m)...)
	app := make([]Value, 0, m)
	for k := nb; k >= 0 && pl.shift[k] > 0; k-- { // no inserts at or below piece k: untouched
		start, end, sBefore := 0, n, 0
		if k > 0 {
			start, sBefore = pl.cuts[k-1], pl.shift[k-1]
		}
		if k < nb {
			end = pl.cuts[k]
		}
		app = app[:0]
		front := start // old-array index of the piece's current first tuple
		pop := 0       // consumed prefix of the appended queue
		for i, t := range pl.targets {
			switch {
			case t == k:
				app = append(app, ins[i])
			case t < k && front < end:
				app = append(app, c[front])
				front++
			case t < k && pop < len(app):
				app = append(app, app[pop])
				pop++
			}
			// else: the piece is empty; nothing rotates.
		}
		// Surviving originals keep their order, then the appended queue.
		at := start + sBefore
		at += copy(c[at:], c[front:end])
		copy(c[at:end+pl.shift[k]], app[pop:])
	}
	return c
}

// RippleInsertKeys batch-merges the tuples with the given base keys into p
// and its followers (RippleInsertBatch): head values come from headCol, and
// each pairs' tail values from its column in cols, cols[0] p's and cols[i]
// followers[i-1]'s, or are the keys themselves where that column is nil
// (key maps).
func (p *Pairs) RippleInsertKeys(keys []int, headCol *store.Column, cols []*store.Column, followers ...*Pairs) {
	valsOf := func(col *store.Column) []Value {
		out := make([]Value, len(keys))
		for i, k := range keys {
			if col != nil {
				out[i] = col.Vals[k]
			} else {
				out[i] = Value(k)
			}
		}
		return out
	}
	fs := make([]Follower, len(followers))
	for i, f := range followers {
		fs[i] = Follower{f, valsOf(cols[i+1])}
	}
	p.RippleInsertBatch(valsOf(headCol), valsOf(cols[0]), fs...)
}

// RippleDelete removes the tuple at position pos by rippling the hole to
// the end of the column: the last tuple of the hole's piece fills the hole,
// every subsequent boundary shifts left by one (its piece donates its last
// tuple to the hole it inherits), and the column shrinks by one. Only one
// tuple per downstream piece moves, where compacting the column would move
// its whole suffix. This is the per-tuple reference for RippleDeleteBatch.
func (p *Pairs) RippleDelete(pos int) {
	n := len(p.Head)
	type bpos struct {
		b crackindex.Bound
		p int
	}
	var bps []bpos
	p.Idx.Walk(func(b crackindex.Bound, bp int) {
		if bp > pos {
			bps = append(bps, bpos{b, bp})
		}
	})
	hole := pos
	for _, e := range bps {
		last := e.p - 1
		if hole != last {
			p.Head[hole], p.Tail[hole] = p.Head[last], p.Tail[last]
		}
		hole = last
	}
	if hole != n-1 {
		p.Head[hole], p.Tail[hole] = p.Head[n-1], p.Tail[n-1]
	}
	p.Head = p.Head[:n-1]
	p.Tail = p.Tail[:n-1]
	for _, e := range bps {
		p.Idx.Insert(e.b, e.p-1)
	}
}

// RippleDeleteBatch removes the tuples at the given positions (ascending,
// duplicate-free, valid against the current layout) from p and from every
// follower in a single pass: one index walk, one fill-from-the-end sweep per
// affected piece of each column, and one bulk boundary shift. It produces
// exactly the layout that per-tuple RippleDelete calls produce when applied
// from the highest position down (the order in which every position stays
// valid), so replay tapes can use either form without breaking alignment
// determinism. It is the delete-side counterpart of RippleInsertBatch: a
// follower is a tail alone or a tail whose head values and boundaries equal
// p's, and every column moves by p's boundaries. Panics if a follower's
// length differs from p's, or if p follows itself.
func (p *Pairs) RippleDeleteBatch(positions []int, followers ...*Pairs) {
	for _, f := range followers {
		p.checkFollower(f)
	}
	if len(positions) == 0 {
		return
	}
	_, cuts := p.cuts()
	p.Head, p.Tail = rippleDelete(p.Head, cuts, positions), rippleDelete(p.Tail, cuts, positions)
	for _, f := range followers {
		if f.Head != nil {
			f.Head = rippleDelete(f.Head, cuts, positions)
		}
		f.Tail = rippleDelete(f.Tail, cuts, positions)
	}
	p.shiftIndex(followers, func(_, pos int) int { return pos - sort.SearchInts(positions, pos) })
}

// rippleDelete removes positions from column c, whose pieces end at cuts.
// Sequential highest-first semantics decompose per piece: a piece first
// absorbs its own deletions (each hole filled by the piece's current last
// tuple), then rotates right once per deletion in an earlier piece (it
// donates its last tuple to the piece below and inherits a slot). "before"
// counts deletions in earlier pieces; di scans positions.
func rippleDelete(c []Value, cuts, positions []int) []Value {
	n, m := len(c), len(positions)
	di, before := 0, 0
	for k := 0; k <= len(cuts); k++ {
		s, e := 0, n
		if k > 0 {
			s = cuts[k-1]
		}
		if k < len(cuts) {
			e = cuts[k]
		}
		ownStart := di
		for di < m && positions[di] < e {
			di++
		}
		own := positions[ownStart:di]
		end := e
		for i := len(own) - 1; i >= 0; i-- {
			end--
			c[own[i]] = c[end]
		}
		if sz := end - s; before > 0 && sz > 0 {
			ns, r := s-before, before%sz
			copy(c[ns:ns+r], c[end-r:end])
			if before >= sz {
				// Every survivor moves: the rotated tail block lands
				// first, then the untouched prefix follows it.
				copy(c[ns+r:ns+sz], c[s:end-r])
			}
			// before < sz: only the tail block moved into the front gap;
			// the middle [s, end-r) already sits at its final positions.
		}
		before += len(own)
	}
	return c[:n-m]
}

// CheckPieces verifies that every index boundary holds physically: values
// before a boundary are on its left side, values at or after are not.
// Returns false at the first violation. Used by tests and property checks.
func (p *Pairs) CheckPieces() bool {
	ok := true
	p.Idx.Walk(func(b crackindex.Bound, pos int) {
		for i := 0; i < pos && ok; i++ {
			if !onLeft(p.Head[i], b) {
				ok = false
			}
		}
		for i := pos; i < len(p.Head) && ok; i++ {
			if onLeft(p.Head[i], b) {
				ok = false
			}
		}
	})
	return ok
}
