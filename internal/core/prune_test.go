package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"parowl/internal/bitset"
)

// pruneThroughPerBit is the per-bit pruneThrough the word-parallel one
// replaced, kept as its reference: for each member y of K_sub in
// ascending order, the K_sup edge (with unlink), then the pair claim.
func pruneThroughPerBit(s *state, sup, sub int, unlink bool) int64 {
	var claimed int64
	s.K[sub].ForEach(func(y int) bool {
		if y == sup || y == sub {
			return true
		}
		if unlink {
			s.K[sup].Clear(y)
		}
		if s.claimPair(sup, y) {
			claimed++
		}
		return true
	})
	return claimed
}

// randomPruneState builds an optimized-mode state of n concepts from
// seed alone, so two calls build equal states: random open pairs in P,
// random K rows, K_sub with members on both sides of sup (and sometimes
// sup and sub themselves), and K_sup holding sub exactly when unlink.
func randomPruneState(seed int64, n, sup, sub int, unlink bool) *state {
	rng := rand.New(rand.NewSource(seed))
	s := &state{n: n, optimized: true, P: make([]*bitset.Atomic, n), K: make([]*bitset.Atomic, n)}
	pOpen, kDense := rng.Float64(), rng.Float64()
	for x := range n {
		s.P[x], s.K[x] = bitset.NewAtomic(n), bitset.NewAtomic(n)
		for y := range n {
			if y > x && rng.Float64() < pOpen {
				s.P[x].Set(y)
			}
			if y != x && rng.Float64() < kDense {
				s.K[x].Set(y)
			}
		}
	}
	for _, y := range []int{other(rng, 0, sup, sub), other(rng, sup+1, n, sub)} {
		s.K[sub].Set(y)
	}
	for _, y := range []int{sup, sub} {
		if rng.Intn(2) == 0 {
			s.K[sub].Set(y)
		}
	}
	if s.K[sup].Clear(sub); unlink {
		s.K[sup].Set(sub)
	}
	return s
}

// other returns a random index in [lo, hi) other than not; the range
// must hold one.
func other(rng *rand.Rand, lo, hi, not int) int {
	for {
		if y := lo + rng.Intn(hi-lo); y != not {
			return y
		}
	}
}

// TestQuickPruneMatchesPerBit checks pruneAfter, and so pruneThrough,
// against the per-bit reference on random P and K, at sizes that end
// inside, at and just past a word: sup and sub in one word and in
// different words, members of K_sub on both sides of sup, unlink true
// and false. P, K and the Pruned tally must be identical.
func TestQuickPruneMatchesPerBit(t *testing.T) {
	for _, n := range []int{63, 64, 65, 130} {
		for _, sameWord := range []bool{true, false} {
			if !sameWord && n <= 64 {
				continue // one word holds every index
			}
			for _, unlink := range []bool{true, false} {
				check := func(seed int64) bool {
					rng := rand.New(rand.NewSource(seed))
					var sup, sub int
					for {
						// sup has an index other than sub on each side.
						sup, sub = 1+rng.Intn(n-2), rng.Intn(n)
						if sub != sup && (sup/64 == sub/64) == sameWord &&
							(sup > 1 || sub != 0) && (sup < n-2 || sub != n-1) {
							break
						}
					}
					got := randomPruneState(seed, n, sup, sub, unlink)
					want := randomPruneState(seed, n, sup, sub, unlink)
					var tally Stats
					got.pruneAfter(sup, sub, &tally)
					pruned := pruneThroughPerBit(want, sup, sub, unlink)
					name := fmt.Sprintf("n=%d sup=%d sub=%d unlink=%v seed=%d", n, sup, sub, unlink, seed)
					if tally.Pruned != pruned {
						t.Errorf("%s: pruned %d, per-bit %d", name, tally.Pruned, pruned)
						return false
					}
					for x := range n {
						if !got.P[x].Snapshot().Equal(want.P[x].Snapshot()) || !got.K[x].Snapshot().Equal(want.K[x].Snapshot()) {
							t.Errorf("%s: row %d: P %v K %v, per-bit P %v K %v", name, x,
								got.P[x].Snapshot(), got.K[x].Snapshot(), want.P[x].Snapshot(), want.K[x].Snapshot())
							return false
						}
					}
					return true
				}
				if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
					t.Fatalf("n=%d sameWord=%v unlink=%v: %v", n, sameWord, unlink, err)
				}
			}
		}
	}
}
