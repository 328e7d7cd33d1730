package crack

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crackstore/internal/store"
)

// FuzzCrackRange drives random crack sequences from fuzzer-chosen bytes:
// every byte pair becomes a predicate. Invariants: the returned area
// contains exactly the matching tuples, piece boundaries hold physically,
// the tuple multiset never changes, and a copy cracked by the two-pointer
// reference kernel returns the same areas and ends with the same layout
// and the same moves.
func FuzzCrackRange(f *testing.F) {
	f.Add(int64(1), []byte{10, 40, 5, 60, 20, 20})
	f.Add(int64(2), []byte{0, 255, 128, 129})
	f.Add(int64(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, preds []byte) {
		rng := rand.New(rand.NewSource(seed))
		p := randPairs(rng, 1+rng.Intn(1200), 128)
		before := pairSet(p)
		ref := WrapPairs(slices.Clone(p.Head), slices.Clone(p.Tail))
		ref.kernel = twoPointer
		for i := 0; i+1 < len(preds) && i < 40; i += 2 {
			lo, hi := int64(preds[i])%128, int64(preds[i+1])%128
			if lo > hi {
				lo, hi = hi, lo
			}
			pred := store.Pred{Lo: lo, Hi: hi, LoIncl: preds[i]%2 == 0, HiIncl: preds[i+1]%2 == 0}
			alo, ahi := p.CrackRange(pred)
			if rlo, rhi := ref.CrackRange(pred); alo != rlo || ahi != rhi {
				t.Fatalf("pred %v: area (%d,%d) vs two-pointer (%d,%d)", pred, alo, ahi, rlo, rhi)
			}
			for j := 0; j < p.Len(); j++ {
				in := j >= alo && j < ahi
				if pred.Matches(p.Head[j]) != in {
					t.Fatalf("pred %v: position %d (val %d) inArea=%v", pred, j, p.Head[j], in)
				}
			}
		}
		if !p.CheckPieces() {
			t.Fatal("piece invariant violated")
		}
		if !equalSets(before, pairSet(p)) {
			t.Fatal("tuple multiset changed")
		}
		if !slices.Equal(p.Head, ref.Head) || !slices.Equal(p.Tail, ref.Tail) || p.Stats.Moved != ref.Stats.Moved {
			t.Fatalf("block and two-pointer kernels diverged (moved %d vs %d)", p.Stats.Moved, ref.Stats.Moved)
		}
	})
}

// FuzzCrackRangeInPiece fuzzes the same-piece range crack. For every
// fuzzer-chosen predicate sequence: it must produce the areas and piece
// boundaries of the two-pass crack-in-two reference; the block partition
// and the two-pointer reference kernel must agree on layout and stats;
// a map with equal heads and different tails must end with an identical
// head column (the alignment-determinism invariant of Section 3.2); and no
// (head, tail) pairing may be lost.
func FuzzCrackRangeInPiece(f *testing.F) {
	f.Add(int64(1), []byte{10, 40, 5, 60, 20, 20})
	f.Add(int64(4), []byte{0, 127, 64, 65, 1, 126})
	f.Add(int64(8), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, preds []byte) {
		rng := rand.New(rand.NewSource(seed))
		a := randPairs(rng, 1+rng.Intn(1200), 128)
		before := pairSet(a)
		other := make([]Value, a.Len())
		for i := range other {
			other[i] = Value(rng.Int63())
		}
		b := WrapPairs(append([]Value(nil), a.Head...), other)
		br := WrapPairs(append([]Value(nil), a.Head...), append([]Value(nil), a.Tail...))
		br.kernel = twoPointer
		ref := WrapPairs(append([]Value(nil), a.Head...), append([]Value(nil), a.Tail...))
		for i := 0; i+1 < len(preds) && i < 40; i += 2 {
			lo, hi := int64(preds[i])%128, int64(preds[i+1])%128
			if lo > hi {
				lo, hi = hi, lo
			}
			pred := store.Pred{Lo: lo, Hi: hi, LoIncl: preds[i]%2 == 0, HiIncl: preds[i+1]%2 == 0}
			alo, ahi := a.CrackRange(pred)
			b.CrackRange(pred)
			br.CrackRange(pred)
			rlo, rhi := crackRangeTwoPass(ref, pred)
			if alo != rlo || ahi != rhi {
				t.Fatalf("pred %v: area (%d,%d) vs two-pass (%d,%d)", pred, alo, ahi, rlo, rhi)
			}
			for j := 0; j < a.Len(); j++ {
				if in := j >= alo && j < ahi; pred.Matches(a.Head[j]) != in {
					t.Fatalf("pred %v: position %d (val %d) inArea=%v", pred, j, a.Head[j], in)
				}
			}
			if !sameBoundaries(a, ref) {
				t.Fatalf("pred %v: piece boundaries diverged from two-pass reference", pred)
			}
		}
		if a.CheckPieces() != ref.CheckPieces() || !a.CheckPieces() {
			t.Fatal("piece invariant validity diverged")
		}
		if !equalSets(before, pairSet(a)) {
			t.Fatal("tuple multiset changed")
		}
		if a.Stats != br.Stats {
			t.Fatalf("stats diverged: block %+v vs two-pointer %+v", a.Stats, br.Stats)
		}
		for i := 0; i < a.Len(); i++ {
			if a.Head[i] != br.Head[i] || a.Tail[i] != br.Tail[i] {
				t.Fatalf("block and two-pointer kernels diverged at %d: (%d,%d) vs (%d,%d)",
					i, a.Head[i], a.Tail[i], br.Head[i], br.Tail[i])
			}
			if a.Head[i] != b.Head[i] {
				t.Fatalf("maps with equal heads and different tails diverged at %d: %d vs %d",
					i, a.Head[i], b.Head[i])
			}
		}
	})
}

// FuzzBlockPartition fuzzes the block partition against the two-pointer
// reference kernel directly: a fuzzer-chosen byte pattern, repeated to a
// fuzzer-chosen length of up to eight blocks, is partitioned at a
// fuzzer-chosen cutoff by a leader with a follower that has a head and one
// that is a tail alone. Splits, every layout and every move count must
// equal the reference's.
func FuzzBlockPartition(f *testing.F) {
	f.Add([]byte{3, 200, 7, 9, 100}, uint8(50), uint16(700))
	f.Add([]byte{255, 0}, uint8(1), uint16(257))
	f.Add([]byte{9}, uint8(9), uint16(2048))
	f.Fuzz(func(t *testing.T, pattern []byte, c uint8, n uint16) {
		if len(pattern) == 0 {
			return
		}
		size := int(n) % (8*predBlock + 1)
		head, tail := make([]Value, size), make([]Value, size)
		for i := range head {
			head[i], tail[i] = Value(pattern[i%len(pattern)]), Value(i)
		}
		group := func(kernel func(*Pairs, Value, int, int) int) []*Pairs {
			ps := []*Pairs{
				WrapPairs(slices.Clone(head), slices.Clone(tail)),
				WrapPairs(slices.Clone(head), slices.Clone(tail)),
				{Tail: slices.Clone(tail)},
			}
			ps[0].kernel, ps[0].followers = kernel, ps[1:]
			return ps
		}
		blk, ref := group(nil), group(twoPointer)
		if got, want := blk[0].partition(Value(c), 0, size), ref[0].partition(Value(c), 0, size); got != want {
			t.Fatalf("split %d, two-pointer %d", got, want)
		}
		for i := range blk {
			if !slices.Equal(blk[i].Head, ref[i].Head) || !slices.Equal(blk[i].Tail, ref[i].Tail) || blk[i].Stats != ref[i].Stats {
				t.Fatalf("member %d: layout or stats differ from the two-pointer reference (%+v vs %+v)", i, blk[i].Stats, ref[i].Stats)
			}
		}
	})
}

// FuzzRippleInsertBatch fuzzes the batched merge against arrival-order
// sequential RippleInsert calls interleaved with cracks: final layouts must
// be bit-identical.
func FuzzRippleInsertBatch(f *testing.F) {
	f.Add(int64(1), []byte{0, 10, 1, 20, 1, 30, 0, 50, 1, 5})
	f.Add(int64(3), []byte{1, 1, 1, 2, 1, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		a := randPairs(rng, 128, 64)
		b := WrapPairs(append([]Value(nil), a.Head...), append([]Value(nil), a.Tail...))
		var vals, tails []Value
		flush := func() {
			a.RippleInsertBatch(vals, tails)
			for i := range vals {
				b.RippleInsert(vals[i], tails[i])
			}
			vals, tails = vals[:0], tails[:0]
		}
		for i := 0; i+1 < len(ops) && i < 60; i += 2 {
			arg := int64(ops[i+1]) % 64
			if ops[i]%2 == 0 { // crack: flush the pending batch first
				flush()
				a.CrackRange(store.Range(arg, arg+16))
				b.CrackRange(store.Range(arg, arg+16))
			} else {
				vals = append(vals, arg)
				tails = append(tails, Value(1000+i))
			}
		}
		flush()
		if a.Len() != b.Len() {
			t.Fatalf("length diverged: %d vs %d", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if a.Head[i] != b.Head[i] || a.Tail[i] != b.Tail[i] {
				t.Fatalf("batch vs sequential diverged at %d", i)
			}
		}
		if !sameBoundaries(a, b) {
			t.Fatal("index boundaries diverged")
		}
		if !a.CheckPieces() {
			t.Fatal("piece invariant violated")
		}
	})
}

// FuzzRippleDeleteBatch fuzzes the single-pass batched delete against
// highest-position-first sequential RippleDelete calls, interleaved with
// cracks: final layouts and index boundaries must be bit-identical.
func FuzzRippleDeleteBatch(f *testing.F) {
	f.Add(int64(1), []byte{1, 10, 1, 20, 0, 30, 1, 5})
	f.Add(int64(6), []byte{1, 0, 1, 1, 1, 2, 0, 40, 1, 63})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		a := randPairs(rng, 128, 64)
		b := WrapPairs(append([]Value(nil), a.Head...), append([]Value(nil), a.Tail...))
		seen := make(map[int]bool)
		var dead []int
		flush := func() {
			sort.Ints(dead)
			a.RippleDeleteBatch(dead)
			for i := len(dead) - 1; i >= 0; i-- {
				b.RippleDelete(dead[i])
			}
			dead = dead[:0]
			for k := range seen {
				delete(seen, k)
			}
		}
		for i := 0; i+1 < len(ops) && i < 60; i += 2 {
			arg := int64(ops[i+1])
			if ops[i]%2 == 0 { // crack: flush the pending batch first
				flush()
				lo := arg % 64
				a.CrackRange(store.Range(lo, lo+16))
				b.CrackRange(store.Range(lo, lo+16))
			} else if a.Len() > len(dead) {
				pos := int(arg) % a.Len()
				if !seen[pos] {
					seen[pos] = true
					dead = append(dead, pos)
				}
			}
		}
		flush()
		if a.Len() != b.Len() {
			t.Fatalf("length diverged: %d vs %d", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if a.Head[i] != b.Head[i] || a.Tail[i] != b.Tail[i] {
				t.Fatalf("batch vs sequential diverged at %d", i)
			}
		}
		if !sameBoundaries(a, b) {
			t.Fatal("index boundaries diverged")
		}
		if !a.CheckPieces() {
			t.Fatal("piece invariant violated")
		}
	})
}

// FuzzRippleUpdates mixes cracks, ripple inserts and ripple deletes.
func FuzzRippleUpdates(f *testing.F) {
	f.Add(int64(1), []byte{0, 10, 1, 20, 2, 3, 0, 50})
	f.Add(int64(9), []byte{2, 2, 2, 2, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		p := randPairs(rng, 128, 64)
		live := p.Len()
		for i := 0; i+1 < len(ops) && i < 60; i += 2 {
			arg := int64(ops[i+1]) % 64
			switch ops[i] % 3 {
			case 0: // crack
				p.CrackRange(store.Range(arg, arg+16))
			case 1: // insert
				p.RippleInsert(arg, Value(1000+i))
				live++
			case 2: // delete one position
				if p.Len() > 0 {
					p.RippleDelete(int(arg) % p.Len())
					live--
				}
			}
			if p.Len() != live {
				t.Fatalf("length drift: %d vs %d", p.Len(), live)
			}
		}
		if !p.CheckPieces() {
			t.Fatal("piece invariant violated")
		}
	})
}

// FuzzFollowersAgree pins the follower kernels, CrackRangeWith,
// RippleInsertBatch and RippleDeleteBatch, against independent solo runs. A
// leader and 1-3 followers share a random head (each with its own tail),
// and one more follower is a tail alone, without head or index. They run a
// fuzzer-chosen op sequence jointly: cracks with the block partition under
// every policy, and batches of ripple inserts (each follower with tail
// values of its own) and ripple deletes. Solo copies, the tail alone's with
// the leader's head, run the same ops alone: cracks with the two-pointer
// reference kernel, updates tuple by tuple through RippleInsert and
// RippleDelete. After every op the leader and every follower must hold the
// solo copies' tails, and those with a head their heads and index
// boundaries too; the tail alone must still have neither. The leader's
// stats must equal its solo copy's, and every follower must count the
// leader's moves and nothing else.
func FuzzFollowersAgree(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), []byte{10, 40, 5, 60, 20, 20})
	f.Add(int64(2), uint8(3), uint8(1), []byte{0, 127, 64, 65, 1, 126, 255, 3})
	f.Add(int64(3), uint8(2), uint8(2), []byte{3, 90, 17, 250, 100, 101, 40, 41})
	f.Add(int64(4), uint8(2), uint8(1), []byte{10, 40, 6, 3, 20, 70, 7, 2, 14, 1, 1, 126, 15, 0})
	f.Fuzz(func(t *testing.T, seed int64, nf, policy uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		lead := randPairs(rng, 1+rng.Intn(1200), 128)
		lead.Policy = Policy{Kind: PolicyKind(policy % 3), Cap: 16 + int(policy)%48, Seed: uint64(seed)}
		joint := []*Pairs{lead}
		for i := 0; i < 1+int(nf)%3; i++ {
			tail := make([]Value, lead.Len())
			for j := range tail {
				tail[j] = Value(rng.Int63())
			}
			fp := WrapPairs(append([]Value(nil), lead.Head...), tail)
			fp.Policy = lead.Policy
			joint = append(joint, fp)
		}
		bare := &Pairs{Tail: make([]Value, lead.Len()), Policy: lead.Policy}
		for j := range bare.Tail {
			bare.Tail[j] = Value(rng.Int63())
		}
		joint = append(joint, bare)
		solo := make([]*Pairs, len(joint))
		for i, p := range joint {
			solo[i] = WrapPairs(append([]Value(nil), lead.Head...), append([]Value(nil), p.Tail...))
			solo[i].Policy, solo[i].kernel = p.Policy, twoPointer
		}
		for i := 0; i+1 < len(ops) && i < 40; i += 2 {
			op := fmt.Sprintf("op %d", i/2)
			switch n := 1 + int(ops[i+1])%4; ops[i] % 8 {
			case 6: // a batch of n ripple inserts
				vals := make([]Value, n)
				tails := make([][]Value, len(joint))
				for j := range vals {
					vals[j] = rng.Int63n(128)
				}
				fs := make([]Follower, 0, len(joint)-1)
				for k, p := range joint {
					tails[k] = make([]Value, n)
					for j := range tails[k] {
						tails[k][j] = Value(rng.Int63())
					}
					if k > 0 {
						fs = append(fs, Follower{p, tails[k]})
					}
				}
				lead.RippleInsertBatch(vals, tails[0], fs...)
				for k, p := range solo {
					for j, v := range vals {
						p.RippleInsert(v, tails[k][j])
					}
				}
				op += fmt.Sprintf(": insert %v", vals)
			case 7: // a batch of up to n ripple deletes
				if lead.Len() == 0 {
					continue
				}
				var dead []int
				for j := 0; j < n; j++ {
					if pos := rng.Intn(lead.Len()); !slices.Contains(dead, pos) {
						dead = append(dead, pos)
					}
				}
				sort.Ints(dead)
				lead.RippleDeleteBatch(dead, joint[1:]...)
				for _, p := range solo {
					for j := len(dead) - 1; j >= 0; j-- {
						p.RippleDelete(dead[j])
					}
				}
				op += fmt.Sprintf(": delete %v", dead)
			default:
				lo, hi := int64(ops[i])%128, int64(ops[i+1])%128
				if lo > hi {
					lo, hi = hi, lo
				}
				pred := store.Pred{Lo: lo, Hi: hi, LoIncl: ops[i]%2 == 0, HiIncl: ops[i+1]%2 == 0}
				if ops[i+1] >= 250 {
					// An unbounded range: its upper bound has no cutoff to
					// count against.
					pred.Hi, pred.HiIncl = math.MaxInt64, true
				}
				alo, ahi := lead.CrackRangeWith(pred, joint[1:])
				for _, p := range solo[1:] {
					p.CrackRange(pred)
				}
				if slo, shi := solo[0].CrackRange(pred); alo != slo || ahi != shi {
					t.Fatalf("%s: pred %v: joint area (%d,%d) vs solo (%d,%d)", op, pred, alo, ahi, slo, shi)
				}
			}
			if bare.Head != nil || bare.Idx != nil {
				t.Fatalf("%s: the tail alone gained a head or an index", op)
			}
			for k, p := range joint {
				if !slices.Equal(p.Tail, solo[k].Tail) {
					t.Fatalf("%s: member %d: tail differs from its solo run", op, k)
				}
				if p == bare {
					continue
				}
				if !slices.Equal(p.Head, solo[k].Head) {
					t.Fatalf("%s: member %d: head differs from its solo run", op, k)
				}
				if !sameBoundaries(p, solo[k]) {
					t.Fatalf("%s: member %d: boundaries differ from its solo run", op, k)
				}
			}
		}
		if lead.Stats != solo[0].Stats {
			t.Fatalf("leader stats %+v, solo %+v", lead.Stats, solo[0].Stats)
		}
		for i, p := range joint[1:] {
			if want := (KernelStats{Moved: lead.Stats.Moved}); p.Stats != want {
				t.Fatalf("follower %d stats %+v, want %+v", i, p.Stats, want)
			}
		}
	})
}

// A follower must be another pairs of its leader's length, for a crack and
// for either ripple kernel.
func TestCrackRangeWithRejectsBadFollowers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randPairs(rng, 64, 32)
	for name, f := range map[string]*Pairs{
		"shorter":           randPairs(rng, 63, 32),
		"itself":            p,
		"shorter tail only": {Tail: make([]Value, 63)},
	} {
		for kernel, run := range map[string]func(){
			"crack":  func() { p.CrackRangeWith(store.Range(4, 9), []*Pairs{f}) },
			"insert": func() { p.RippleInsertBatch([]Value{4}, []Value{1}, Follower{f, []Value{2}}) },
			"delete": func() { p.RippleDeleteBatch([]int{3}, f) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s follower: no panic", kernel, name)
					}
				}()
				run()
			}()
		}
	}
}
