package core

import (
	"time"

	"parowl/internal/bitset"
	"parowl/internal/el"
)

// runPrepass is stage 1 of the cheap-first subsumption pipeline
// (Options.ELPrepass): saturate the EL-expressible fragment of the TBox
// and write its conclusions into the run's shared state before the
// random-division phase dispatches a single plug-in test.
//
// Soundness rests on monotonicity of entailment: the fragment keeps only
// axioms entailed by the TBox (non-EL axioms are dropped, conjunctive
// right sides weakened — see el.NewFragment), so every subsumption or
// unsatisfiability the saturation derives holds for the full TBox. The
// transfer mirrors exactly what the paper's algorithms would have done
// had the plug-in answered those tests:
//
//  1. a fragment-unsatisfiable concept is resolved the way sat() resolves
//     a plug-in "no" — satState ← satNo and every P entry involving the
//     concept cleared;
//  2. el.Seeds hands over each satisfiable concept's row of proven
//     subsumers, indexed as s.named is; the rows and columns of
//     unsatisfiable concepts are masked out, and the rows are written
//     into K (K_sup holds sub) by a blocked 64×64 transpose. When the
//     fragment is partial, the proven facts also strip P, row by row
//     (claimProven): in basic mode the directed entries are claimed, in
//     optimized mode a pair is claimed only when both directions are
//     proven. A half-decided pair stays claimable for its remaining
//     direction, which the K-shortcircuit in testDirected then answers
//     for free;
//  3. when the fragment is complete (el.Coverage.Complete) its saturation
//     is exact for the whole TBox — the property the EL plug-in's
//     DisprovesSubs relies on — so the prepass decides everything: every
//     concept it did not prove unsatisfiable is satisfiable, and every
//     pair it did not prove is a non-subsumption. P is emptied (basic mode
//     also sets the tested entries) and no sat?, subs? or filter call
//     follows;
//  4. otherwise every concept whose satisfiability is still unknown gets
//     its sat?() probe here, in parallel. The baseline runs sat?() exactly
//     once per concept anyway, so this adds nothing — but it is required
//     for correctness, not just warm-up: seeded K bits let pruneAfter
//     claim all of a concept's pairs without any test touching it, and a
//     concept satisfiable in a partial fragment may still be
//     unsatisfiable in the full TBox, which only a real probe can
//     discover.
//
// Every probe and directed test settled here is counted in
// Stats.PreSeeded. A prepass abandoned by context cancellation poisons
// the run like any cancelled phase, before any row reaches K.
func (s *state) runPrepass(p *pool, workers int, trace *Trace) {
	before := s.snapshot()
	start := time.Now()
	s.prepassed = true
	frag, cov := el.NewFragment(s.tbox, el.Options{Workers: workers})
	if err := s.seed(frag, cov.Complete()); err != nil {
		// el saturation fails only on context cancellation.
		s.fail(err)
		return
	}
	seedDur := time.Since(start)

	var unknowns []int
	for x := 0; x < s.n; x++ {
		if s.satState[x].Load() == satUnknown {
			unknowns = append(unknowns, x)
		}
	}
	for _, g := range splitGroups(unknowns, workers*4) {
		g := g
		p.submit(func() time.Duration {
			for _, x := range g {
				if s.failed() {
					break
				}
				s.sat(x)
			}
			return 0
		})
	}
	rep := p.barrier()
	// The sequential seeding work is charged as a pseudo-task that ran on
	// no pool worker (-1), keeping durs and workers aligned.
	rep.durs = append([]time.Duration{seedDur}, rep.durs...)
	rep.workers = append([]int{-1}, rep.workers...)
	s.record(trace, PhasePrepass, 1, before, rep)
}

// seed transfers the saturation of frag into the shared state: steps 1
// to 3 of runPrepass. complete reports that frag covers the whole TBox.
func (s *state) seed(frag *el.Reasoner, complete bool) error {
	rows := make([]*bitset.Set, s.n)
	var unsat *bitset.Set // every satNo concept, once the last unsat is in
	err := frag.Seeds(s.ctx, func(x int) {
		if s.markUnsat(x) {
			s.preSeeded.Add(1)
		}
	}, func(x int, sups *bitset.Set) {
		if unsat == nil {
			unsat = bitset.New(s.n)
			for y := range s.satState {
				if s.satState[y].Load() == satNo {
					unsat.Set(y)
				}
			}
		}
		if !unsat.Test(x) {
			sups.Subtract(unsat)
			rows[x] = sups
		}
	})
	if err != nil {
		return err
	}
	bitset.OrTranspose(s.K, rows)
	if complete {
		s.decideRest()
	} else {
		s.claimProven(rows)
	}
	return nil
}

// claimProven strips from P what a partial fragment proved, once rows
// (rows[x] = the proven subsumers of x) are in K. In basic mode every
// directed test (x, y) with y ∈ K_x is claimed in tested and leaves P_x;
// an entry claimed before the prepass (K_⊤'s) is not counted again. In
// optimized mode the pair {x, y} is claimed when both directions are
// proven: y ∈ rows[x] (x ⊑ y) and y ∈ K_x (y ⊑ x), where x ⊑ ⊤ needs no
// proof. P_x holds only y > x, so each pair is claimed from its smaller
// side and counts two directed tests.
func (s *state) claimProven(rows []*bitset.Set) {
	for x, row := range rows {
		switch {
		case !s.optimized:
			claimed := s.tested.SetRow(x, s.K[x].Snapshot())
			s.P[x].ClearSet(claimed)
			s.preSeeded.Add(int64(claimed.Count()))
		case row != nil:
			row.Set(s.top)
			both := s.K[x].Snapshot()
			both.Intersect(row)
			s.preSeeded.Add(2 * int64(s.P[x].ClearSet(both)))
		}
	}
}

// decideRest resolves everything a complete fragment left unproven: its
// saturation is the exact subsumption relation, so a concept not proven
// unsatisfiable is satisfiable and a pair not proven is a
// non-subsumption. K already holds every proven fact, so only the
// bookkeeping remains: P empties, basic mode claims the directed tested
// entries, and each settled probe and directed test counts as PreSeeded.
func (s *state) decideRest() {
	for x := 0; x < s.n; x++ {
		if s.satState[x].CompareAndSwap(satUnknown, satYes) {
			s.preSeeded.Add(1)
		}
		if s.optimized {
			s.preSeeded.Add(2 * int64(s.P[x].Count()))
		} else {
			s.preSeeded.Add(int64(s.tested.SetRow(x, s.P[x].Snapshot()).Count()))
		}
		s.P[x].ClearAll()
	}
}
