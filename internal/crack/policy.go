package crack

import (
	"fmt"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// PolicyKind selects how cracking picks partition pivots.
//
// Plain cracking converges only as fast as the workload lets it: every
// boundary comes from a query bound, so sequential sweeps and zoom-ins —
// the access shapes interactive exploration actually produces — leave one
// huge uncracked piece that every subsequent query rescans, degrading
// toward quadratic total work. The non-default policies below break that
// dependence by introducing auxiliary pivots whenever a crack targets a
// piece larger than a configurable cap, so no piece stays pathologically
// large regardless of the query pattern (the stochastic-cracking remedy of
// Halim, Idreos, Karras & Yap, VLDB 2012).
type PolicyKind int

const (
	// Default cracks exactly at the query's predicate bounds — the paper's
	// original algorithm and the zero value.
	Default PolicyKind = iota
	// Stochastic pre-splits any targeted piece larger than the cap at
	// median-of-sample pivots: three piece values at positions chosen by a
	// seeded hash of the piece, median taken as the pivot (DDC/DDR style).
	// Sampling real values splits duplicate-heavy and skewed pieces where a
	// value midpoint would not.
	Stochastic
	// Capped deterministically halves any targeted piece larger than the
	// cap at the midpoint of its value range, recursively, before the
	// query's own crack (the deterministic DDC sibling; radix-like on
	// uniform data).
	Capped
)

func (k PolicyKind) String() string {
	switch k {
	case Default:
		return "default"
	case Stochastic:
		return "stochastic"
	case Capped:
		return "capped"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// KindByName maps a policy name ("default", "stochastic", "capped") to its
// kind; ok is false for unknown names.
func KindByName(name string) (PolicyKind, bool) {
	switch name {
	case "default":
		return Default, true
	case "stochastic":
		return Stochastic, true
	case "capped":
		return Capped, true
	}
	return Default, false
}

// Policy configures adaptive pivot selection for a Pairs. The zero value is
// the Default policy (no auxiliary pivots).
//
// Auxiliary pivots are recorded in the cracker index exactly like
// query-bound boundaries, so read-only lookups (Area, SelectRO, the engines'
// QueryRO) benefit from them immediately, ripple updates shift them
// like any other boundary, and a later query whose bound equals a pivot
// pays no partition pass at all.
//
// Policy decisions are deterministic functions of (Policy, piece state), so
// two structures that replay the same operation sequence under the same
// policy produce identical layouts — the alignment invariant sideways
// cracking depends on. Stores therefore freeze the policy per map set at
// set-creation time.
type Policy struct {
	Kind PolicyKind
	// Cap is the piece size (in tuples) above which auxiliary pivots are
	// introduced before a crack; 0 picks max(1024, n/16) for a column of n
	// tuples.
	Cap int
	// Seed perturbs Stochastic's sample positions. Structures that must
	// stay aligned (maps of one sideways set) must share a seed; they do,
	// because the policy is fixed per store.
	Seed uint64
}

// capFor resolves the effective piece-size cap for a column of n tuples.
func (pol Policy) capFor(n int) int {
	if pol.Cap > 0 {
		return pol.Cap
	}
	c := n / 16
	if c < 1024 {
		c = 1024
	}
	return c
}

// maxPolicySplits bounds the auxiliary splits one applyPolicy call can
// introduce: 64 value-range halvings exhaust an int64 domain, so the bound
// is a safety net, not a tuning knob.
const maxPolicySplits = 64

// applyPolicy pre-splits the piece that bound b falls into while it is
// larger than the policy cap, recording each auxiliary pivot in the index
// as a normal boundary. A no-op under the Default policy, when b already
// exists as a boundary, and on pieces at or below the cap — in particular,
// a crack whose bounds are all existing boundaries stays a physical no-op
// under every policy (partial sideways' lazy replay relies on that).
func (p *Pairs) applyPolicy(b crackindex.Bound) {
	if p.Policy.Kind == Default || len(p.Head) == 0 {
		return
	}
	cap := p.Policy.capFor(len(p.Head))
	for s := 0; s < maxPolicySplits; s++ {
		pc := p.Idx.PieceFor(b, len(p.Head))
		if pc.LoExact || pc.Hi-pc.Lo <= cap {
			return
		}
		pv, ok := p.pivotFor(pc)
		if !ok {
			return
		}
		pb := crackindex.Bound{V: pv, Incl: true}
		if pb == b || p.Idx.Has(pb) {
			// The query's own crack will create this boundary, or a
			// degenerate pivot re-derived one that already exists; either
			// way another partition pass cannot shrink the piece.
			return
		}
		pos := p.crackInTwo(pb, pc.Lo, pc.Hi)
		p.mark(pb, pos)
		p.Stats.Aux++
		if (pos == pc.Lo || pos == pc.Hi) && p.Policy.Kind != Capped {
			// The pivot was the piece's extreme value: positions did not
			// move and a re-sample would pick it again. Capped continues —
			// its value range still halves, so it converges regardless.
			return
		}
	}
}

// pivotFor returns the auxiliary pivot value for piece pc under the
// policy; ok is false when the piece cannot be usefully split.
//
// Validity: the new boundary {pivot, inclusive} must hold globally. For
// Stochastic the pivot is a value drawn from the piece itself, which is
// strictly right of everything before the piece and strictly left of
// everything after it (in boundary semantics), so it is always valid. For
// Capped the midpoint is kept strictly inside the piece's delimiting
// boundary values (LoBound.V < pivot < HiBound.V), with edge pieces
// scanned for their actual min/max.
func (p *Pairs) pivotFor(pc crackindex.Piece) (Value, bool) {
	switch p.Policy.Kind {
	case Stochastic:
		n := uint64(pc.Hi - pc.Lo)
		h := p.Policy.Seed + uint64(pc.Lo)*0x9e3779b97f4a7c15 + uint64(pc.Hi)*0xbf58476d1ce4e5b9
		v1 := p.Head[pc.Lo+int(store.Mix64(h)%n)]
		v2 := p.Head[pc.Lo+int(store.Mix64(h+1)%n)]
		v3 := p.Head[pc.Lo+int(store.Mix64(h+2)%n)]
		return median3(v1, v2, v3), true
	case Capped:
		lo, hi := p.pieceValueRange(pc)
		if hi-lo < 2 {
			return 0, false
		}
		return lo + (hi-lo)/2, true
	}
	return 0, false
}

// pieceValueRange returns the delimiting boundary values of piece pc,
// scanning the piece once for its actual min/max at the column edges
// (where no boundary delimits it).
func (p *Pairs) pieceValueRange(pc crackindex.Piece) (lo, hi Value) {
	lo, hi = pc.LoBound.V, pc.HiBound.V
	if pc.HasLoB && pc.HasHiB {
		return lo, hi
	}
	sLo, sHi := p.Head[pc.Lo], p.Head[pc.Lo]
	for _, v := range p.Head[pc.Lo:pc.Hi] {
		if v < sLo {
			sLo = v
		}
		if v > sHi {
			sHi = v
		}
	}
	if !pc.HasLoB {
		lo = sLo
	}
	if !pc.HasHiB {
		hi = sHi
	}
	return lo, hi
}

func median3(a, b, c Value) Value {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}
