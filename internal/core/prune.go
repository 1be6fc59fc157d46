package core

import (
	"math/bits"
	"time"
)

// order returns the pair in canonical (smaller, larger) index order; the
// paper stores each possible pair once, at the smaller index (Sec. IV,
// Definition 2).
func order(u, v int) (int, int) {
	if u > v {
		return v, u
	}
	return u, v
}

// claimPair atomically claims the unordered pair {u, v}; only one worker
// ever wins a given pair. The claim is the atomic clear of the pair's
// single P bit (stored at the smaller index): clearing doubles as the
// paper's tested() bookkeeping without a separate n×n matrix.
func (s *state) claimPair(u, v int) bool {
	a, b := order(u, v)
	return s.P[a].Clear(b)
}

// resolvePair decides the unordered pair {u, v} in optimized mode
// (Algorithm 5, pruneNonPossible): claim, satisfiability checks
// (Situation 1), symmetric subsumption tests (Situation 2.2), and
// K-based pruning (Situations 2.3.1 and 2.3.2). It counts in tally and
// returns the tests' summed cost (see testDirected).
func (s *state) resolvePair(u, v int, tally *Stats) time.Duration {
	if u == v || s.failed() {
		return 0
	}
	a, b := order(u, v)
	if !s.claimPair(a, b) {
		return 0 // Situation 2.1: already tested
	}
	if !s.sat(a) || !s.sat(b) || s.failed() {
		return 0 // Situation 1: sat() already emptied the relevant P entries
	}
	r1, c1 := s.testDirected(a, b, tally) // subs?(a, b): b ⊑ a
	if s.failed() {
		return c1
	}
	r2, c2 := s.testDirected(b, a, tally) // subs?(b, a): a ⊑ b
	if s.failed() {
		return c1 + c2
	}
	switch {
	case r1 && r2:
		// Situation 2.2: a ≡ b, recorded as mutual K membership.
	case r1:
		s.pruneAfter(a, b, tally) // Situation 2.3 with b ⊑ a
	case r2:
		s.pruneAfter(b, a, tally) // Situation 2.3 with a ⊑ b
	default:
		// Situation 2.4: no subsumption either way — the counterexamples
		// of Figs. 6-8 show no sound pruning exists here, so P and K are
		// left unchanged.
	}
	return c1 + c2
}

// prunePass re-applies Situation 2.3 pruning across the whole K relation
// with the knowledge available NOW. pruneAfter is one-shot: it prunes
// with K_sub as of the moment its test result lands, so a subsumee fact
// y ⊑ sub that arrives later never yields its prune {sup, y} — under any
// policy. The async driver runs this sweep on the coordinator when it
// closes an epoch, converting the epoch's late-arriving K facts into P
// clears before the next cut claims them; it costs bitset operations,
// never a reasoner call.
//
// MUST only run at pool quiescence (pending == 0). The claim of pair
// {sup, y} resolves its reverse direction sup ⊑ y false, which is sound
// only for a STRICT sub ⊏ sup, and strictness is only decidable from K
// when no resolvePair is mid-flight between recording its two
// directions. At quiescence, sub ∈ K_sup with the pair {sub, sup}
// claimed and no mutual K edge implies strictness: a tested pair decided
// both directions (one positive), a pruned pair asserted strictness when
// claimed, and the prepass claims a half-proven pair only for
// equivalences (mutual K), the ⊤-trivial case, or under a complete
// fragment, whose unproven converses are false. An UNclaimed pair with
// a one-sided K edge is a prepass half-seed whose converse is still
// open — skipped.
//
// Unlike pruneAfter, the sweep deliberately does NOT clear K_sup edges.
// Keeping the edges is always sound (they are entailed facts; the
// phase-3 transitive reduction removes indirect ones), and it keeps K
// rows fat, so both later sweep iterations and the workers' own
// pruneAfter calls see more subsumees to prune through — the sweep is
// transitive for free.
func (s *state) prunePass() {
	if !s.optimized {
		return // basic mode never prunes (Algorithm 4 tests everything)
	}
	for sup := 0; sup < s.n && !s.failed(); sup++ {
		if sup == s.top || s.satState[sup].Load() != satYes {
			continue
		}
		s.K[sup].ForEach(func(sub int) bool {
			if sub == sup || sub == s.top || s.satState[sub].Load() != satYes {
				return true
			}
			if a, b := order(sub, sup); s.P[a].Test(b) {
				return true // pair still open: strictness undecided
			}
			if s.K[sub].Test(sup) {
				return true // known equivalence: Situation 2.2, no pruning
			}
			s.count.Pruned.Add(s.pruneThrough(sup, sub, false))
			return true
		})
	}
}

// pruneAfter applies Situations 2.3.1 and 2.3.2 after establishing
// sub ⊑ sup (strictly, since the reverse test failed): every y ∈ K_sub is
// also a subsumee of sup but not a direct one, so
//
//   - y is deleted from P_sup and K_sup without a subsumption test
//     (2.3.1), and
//   - sup is deleted from P_y (2.3.2) — with single-sided pair storage
//     both deletions collapse into clearing the one pair {sup, y}.
//
// The reverse direction sup ⊑ y is also resolved (false): it would imply
// sup ⊑ sub, contradicting the failed reverse test. The K-reachability
// chain sup → sub → y preserves the positive fact for phase 3, so K_sup's
// edge to y goes only while K_sup still holds its edge to sub. Without
// that check, two workers that each proved a member of a class X ≡ Y
// below sup would each delete K_sup's edge to the other member, cutting
// sup off from the class. The check and the deletions run under sup's
// stripe of pruneMu, and no other code clears K bits while workers run,
// so each deletion happens while sup → sub is present and sub reaches y;
// sub ⊏ sup strictly, so that path never uses the deleted edge. Every
// deletion thus keeps K's reachability, for equivalence classes of any
// size. In a sequential run the check always passes: the resolver has
// just set sup → sub. Each pair it claims counts in tally.Pruned.
func (s *state) pruneAfter(sup, sub int, tally *Stats) {
	mu := &s.pruneMu[sup%len(s.pruneMu)]
	mu.Lock()
	defer mu.Unlock()
	tally.Pruned += s.pruneThrough(sup, sub, s.K[sup].Test(sub))
}

// pruneThrough claims the pair {sup, y} for every y ∈ K_sub other than
// sup and sub, with unlink also deletes those y from K_sup, and returns
// how many pairs it claimed. It loads K_sub a word at a time and, with
// unlink, clears the word's members from K_sup with one atomic AND. A
// member y > sup keeps its pair bit in P_sup, so one more AND claims
// every such member of the word; a member y < sup keeps it in P_y and
// is claimed on its own.
func (s *state) pruneThrough(sup, sub int, unlink bool) int64 {
	var claimed int64
	for i := range (s.n + 63) / 64 {
		w := s.K[sub].Word(i)
		if i == sup/64 {
			w &^= 1 << (sup % 64)
		}
		if i == sub/64 {
			w &^= 1 << (sub % 64)
		}
		if w == 0 {
			continue
		}
		if unlink {
			s.K[sup].ClearWord(i, w)
		}
		above := w & aboveMask(i, sup)
		if above != 0 {
			claimed += int64(bits.OnesCount64(s.P[sup].ClearWord(i, above)))
		}
		for below := w &^ above; below != 0; below &= below - 1 {
			if s.P[i*64+bits.TrailingZeros64(below)].Clear(sup) {
				claimed++
			}
		}
	}
	return claimed
}

// aboveMask returns the bits of word i whose indexes exceed x.
func aboveMask(i, x int) uint64 {
	switch {
	case i < x/64:
		return 0
	case i > x/64:
		return ^uint64(0)
	}
	return ^uint64(0) << (x % 64) << 1
}
