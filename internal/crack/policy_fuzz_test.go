package crack

import (
	"math/rand"
	"sort"
	"testing"

	"crackstore/internal/store"
)

// FuzzPolicyKernels is the combined equivalence fuzz target for the
// adaptive policies and the partition kernel. For every fuzzer-chosen
// predicate sequence it drives six structures over the same data — each
// policy (Default, Stochastic, Capped) under both the block partition and
// the two-pointer reference kernel — and checks:
//
//   - answer equivalence: every policy returns exactly the Default
//     policy's qualifying key set for every query (layouts may differ
//     across policies);
//   - kernel equivalence: at a fixed policy, the block and two-pointer
//     kernels produce bit-identical layouts, identical boundaries, and
//     identical kernel stats;
//   - invariants: piece boundaries hold physically and the tuple multiset
//     never changes.
func FuzzPolicyKernels(f *testing.F) {
	f.Add(int64(1), []byte{10, 40, 5, 60, 20, 20})
	f.Add(int64(4), []byte{0, 127, 64, 65, 1, 126})
	f.Add(int64(7), []byte{3, 3, 3, 3, 90, 100})
	f.Add(int64(12), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, preds []byte) {
		rng := rand.New(rand.NewSource(seed))
		base := randPairs(rng, 512, 128)
		before := pairSet(base)
		policies := []Policy{
			{},
			{Kind: Stochastic, Cap: 32, Seed: uint64(seed)},
			{Kind: Capped, Cap: 32},
		}
		mk := func(pol Policy) *Pairs {
			p := WrapPairs(append([]Value(nil), base.Head...), append([]Value(nil), base.Tail...))
			p.Policy = pol
			return p
		}
		blk := make([]*Pairs, len(policies))
		ref := make([]*Pairs, len(policies))
		for i, pol := range policies {
			blk[i] = mk(pol)
			ref[i] = mk(pol)
			ref[i].kernel = twoPointer
		}
		for i := 0; i+1 < len(preds) && i < 40; i += 2 {
			lo, hi := int64(preds[i])%128, int64(preds[i+1])%128
			if lo > hi {
				lo, hi = hi, lo
			}
			q := store.Pred{Lo: lo, Hi: hi, LoIncl: preds[i]%2 == 0, HiIncl: preds[i+1]%2 == 0}
			var want []Value
			for k := range policies {
				plo, phi := blk[k].CrackRange(q)
				blo, bhi := ref[k].CrackRange(q)
				if plo != blo || phi != bhi {
					t.Fatalf("policy %v: area (%d,%d) block vs (%d,%d) two-pointer",
						policies[k].Kind, plo, phi, blo, bhi)
				}
				keys := append([]Value(nil), blk[k].Tail[plo:phi]...)
				sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
				if k == 0 {
					want = keys
				} else {
					if len(keys) != len(want) {
						t.Fatalf("policy %v: %d keys, default %d for %v",
							policies[k].Kind, len(keys), len(want), q)
					}
					for x := range keys {
						if keys[x] != want[x] {
							t.Fatalf("policy %v: key set diverged from default for %v",
								policies[k].Kind, q)
						}
					}
				}
			}
		}
		for k := range policies {
			a, b := blk[k], ref[k]
			if a.Stats != b.Stats {
				t.Fatalf("policy %v: kernel stats diverged: %+v vs %+v",
					policies[k].Kind, a.Stats, b.Stats)
			}
			for i := 0; i < a.Len(); i++ {
				if a.Head[i] != b.Head[i] || a.Tail[i] != b.Tail[i] {
					t.Fatalf("policy %v: two-pointer vs block layout diverged at %d",
						policies[k].Kind, i)
				}
			}
			if !sameBoundaries(a, b) {
				t.Fatalf("policy %v: boundaries diverged", policies[k].Kind)
			}
			if !a.CheckPieces() || !b.CheckPieces() {
				t.Fatalf("policy %v: piece invariant violated", policies[k].Kind)
			}
			if !equalSets(before, pairSet(a)) {
				t.Fatalf("policy %v: tuple multiset changed", policies[k].Kind)
			}
		}
	})
}
