package core

import (
	"time"

	"parowl/internal/dl"
	"parowl/internal/el"
)

// runPrepass is stage 1 of the cheap-first subsumption pipeline
// (Options.ELPrepass): saturate the EL-expressible fragment of the TBox
// and stream its conclusions into the run's shared state before the
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
//  2. each proven sub ⊑ sup is set straight into K as el.Seeds streams
//     it; nothing is materialized. When the fragment is partial, the
//     proven facts also strip P: in basic mode the directed entry is
//     claimed, in optimized mode a pair is claimed only when both
//     directions are decided — the converse sup ⊑ sub is proven iff K_sub
//     holds sup, which covers an equivalence streamed in either order and
//     the trivial sub = ⊤ case (K_⊤ holds every concept). A half-decided
//     pair stays claimable for its remaining direction, which the
//     K-shortcircuit in testDirected then answers for free;
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
// the run like any cancelled phase; seeding is otherwise all-or-nothing
// per fact and the classification proceeds correctly from whatever was
// transferred.
func (s *state) runPrepass(p *pool, workers int, trace *Trace) {
	before := s.snapshot()
	start := time.Now()
	s.prepassed = true
	frag, cov := el.NewFragment(s.tbox, el.Options{Workers: workers})
	complete := cov.Complete()
	err := frag.Seeds(s.ctx, func(c *dl.Concept) {
		if s.markUnsat(s.index[c]) {
			s.preSeeded.Add(1)
		}
	}, func(subC, supC *dl.Concept) {
		sub, sup := s.index[subC], s.index[supC]
		if s.satState[sub].Load() == satNo || s.satState[sup].Load() == satNo {
			return
		}
		s.K[sup].Set(sub)
		switch {
		case complete:
			// decideRest settles every pair at once.
		case !s.optimized:
			if !s.tested.TestAndSet(sup, sub) {
				s.P[sup].Clear(sub)
				s.preSeeded.Add(1)
			}
		case s.K[sub].Test(sup) && s.claimPair(sub, sup):
			s.preSeeded.Add(2)
		}
	})
	if err != nil {
		// el saturation fails only on context cancellation.
		s.fail(err)
		return
	}
	if complete {
		s.decideRest()
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
			s.P[x].ForEach(func(y int) bool {
				if !s.tested.TestAndSet(x, y) {
					s.preSeeded.Add(1)
				}
				return true
			})
		}
		s.P[x].ClearAll()
	}
}
