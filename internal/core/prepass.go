package core

import (
	"time"

	"parowl/internal/bitset"
	"parowl/internal/dl"
	"parowl/internal/el"
	"parowl/internal/reasoner"
)

// fragment is the EL prepass's input: a reasoner over the EL fragment of
// the TBox, whether that fragment covers the whole TBox, and the time
// el.NewFragment took, which the prepass's trace record charges. It is
// built before P and K, so that a clean run with a complete fragment can
// go without both (see seed).
type fragment struct {
	*el.Reasoner
	complete bool
	built    time.Duration
}

// newFragment normalizes the EL fragment of t for a prepass on workers
// saturation workers.
func newFragment(t *dl.TBox, workers int) *fragment {
	start := time.Now()
	r, cov := el.NewFragment(t, el.Options{Workers: workers})
	return &fragment{Reasoner: r, complete: cov.Complete(), built: time.Since(start)}
}

// runPrepass runs the cheap-first subsumption pipeline's stages before
// the random-division phase dispatches a single plug-in test: stage 1
// (Options.ELPrepass, when frag is non-nil) saturates the EL-expressible
// fragment of the TBox and writes its conclusions into the run's shared
// state; a parallel sat?() sweep then settles every concept; and stage 2
// (Options.ModelFilter, when rf is the plug-in's row filter) builds the
// filter's disproof rows.
//
// Soundness of stage 1 rests on monotonicity of entailment: the fragment
// keeps only axioms entailed by the TBox (non-EL axioms are dropped,
// conjunctive right sides weakened — see el.NewFragment), so every
// subsumption or unsatisfiability the saturation derives holds for the
// full TBox. The transfer mirrors exactly what the paper's algorithms
// would have done had the plug-in answered those tests:
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
//     is exact for the whole TBox, so the prepass decides everything:
//     every concept it did not prove unsatisfiable is satisfiable, and
//     every pair it did not prove is a non-subsumption. No sat?, subs?
//     or filter call follows. A clean run never built P and K for such a
//     fragment: it counts what the paper's bookkeeping would have
//     settled and returns the rows, which phase 3 turns into its input
//     (see buildTaxonomy). A resumed run empties its restored P
//     (decideRest);
//  4. otherwise every concept whose satisfiability is still unknown gets
//     its sat?() probe here, in parallel. The baseline runs sat?() exactly
//     once per concept anyway, so this adds nothing — but it is required
//     for correctness, not just warm-up: seeded K bits let pruneAfter
//     claim all of a concept's pairs without any test touching it, and a
//     concept satisfiable in a partial fragment may still be
//     unsatisfiable in the full TBox, which only a real probe can
//     discover. The sweep is also what the row filter indexes: each
//     probe leaves the concept's pseudo model with the plug-in.
//
// Every probe and directed test settled by stage 1 is counted in
// Stats.PreSeeded. A prepass abandoned by context cancellation poisons
// the run like any cancelled phase, before any row reaches K. The trace
// records the whole prepass, the fragment's normalization and the row
// build included, as one PhasePrepass cycle. It returns the saturation's
// rows on a run without P and K, and nil otherwise.
func (s *state) runPrepass(p *pool, workers int, frag *fragment, rf reasoner.RowFilter, trace *Trace) []*bitset.Set {
	var (
		up      []*bitset.Set
		seedDur time.Duration
	)
	if frag != nil {
		start := time.Now()
		s.prepassed = true
		var err error
		if up, err = s.seed(frag); err != nil {
			// el saturation fails only on context cancellation.
			s.fail(err)
			return nil
		}
		seedDur = frag.built + time.Since(start)
	}

	var unknowns []int
	for x := 0; x < s.n; x++ {
		if s.satState[x].Load() == satUnknown {
			unknowns = append(unknowns, x)
		}
	}
	for _, g := range splitGroups(unknowns, workers*4) {
		g := g
		p.submit(func() time.Duration {
			start := time.Now()
			for _, x := range g {
				if s.failed() {
					break
				}
				s.sat(x)
			}
			return s.charge(start, 0)
		})
	}
	c := p.barrier()
	c.chargeOutside(seedDur) // the fragment and the sequential seeding
	if rf != nil && !s.failed() && s.remainingPossible() > 0 {
		c.merge(s.buildRows(p, rf))
	}
	s.record(trace, PhasePrepass, 1, c)
	return up
}

// buildRows is stage 2's set-up, run once every concept's satisfiability
// is settled: it fills disproved with one row per satisfiable concept
// still in an open pair, each built on the pool from rf's column index.
// The filter is advisory — a pair it leaves unsettled is decided by
// subs? — so a panicking index build leaves every row out and a
// panicking row build leaves its row out, instead of failing the run. A
// run cancelled mid-build fails with the context error. It returns the
// build's task record, the sequential index build charged outside the
// pool.
func (s *state) buildRows(p *pool, rf reasoner.RowFilter) *Cycle {
	start := time.Now()
	open := bitset.New(s.n)
	for x, px := range s.P {
		if row := px.Snapshot(); !row.IsEmpty() {
			open.Set(x)
			open.Union(row)
		}
	}
	cs := make([]*dl.Concept, s.n)
	open.ForEach(func(x int) bool {
		if s.satState[x].Load() == satYes {
			cs[x] = s.named[x]
		}
		return true
	})
	var row func(int, *bitset.Set)
	if !advisory(func() { row = rf.FilterRows(s.ctx, cs) }) || row == nil {
		cs = nil
	}
	idxDur := time.Since(start)
	s.disproved = make([]*bitset.Set, s.n)
	for x, c := range cs {
		if c == nil {
			continue
		}
		p.submit(func() time.Duration {
			if s.failed() {
				return 0
			}
			start := time.Now()
			out := bitset.New(s.n)
			if advisory(func() { row(x, out) }) {
				s.disproved[x] = out
			}
			return time.Since(start)
		})
	}
	c := p.barrier()
	if err := s.ctx.Err(); err != nil {
		// Rows built after cancellation may be emptier than they should
		// be (still sound), but the run must not complete as if whole.
		s.fail(err)
	}
	c.chargeOutside(idxDur)
	return c
}

// advisory runs one model-filter call and reports whether it returned
// normally. A panic is absorbed on purpose: the caller then drops what
// the call produced, and the pairs it would have settled go to subs?.
func advisory(call func()) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	call()
	return true
}

// seed transfers the saturation of frag into the shared state: steps 1
// to 3 of runPrepass. On a run without P and K, which ClassifyContext
// starts only for a complete fragment, it returns the saturation's rows
// (rows[x] = the proven subsumers of x, unsatisfiable concepts masked
// out, nil for an unsatisfiable x) instead of writing them into K.
func (s *state) seed(frag *fragment) ([]*bitset.Set, error) {
	rows := make([]*bitset.Set, s.n)
	var unsat *bitset.Set // every satNo concept, once the last unsat is in
	err := frag.Seeds(s.ctx, func(x int) {
		if s.markUnsat(x) {
			s.count.PreSeeded.Add(1)
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
		return nil, err
	}
	if s.K == nil {
		s.decideFresh()
		return rows, nil
	}
	bitset.OrTranspose(s.K, rows)
	if frag.complete {
		s.decideRest()
	} else {
		s.claimProven(rows)
	}
	return nil, nil
}

// claimProven strips from P what a partial fragment proved, once rows
// (rows[x] = the proven subsumers of x) are in K. In basic mode every
// directed test (x, y) with y ∈ K_x is claimed by clearing it from P_x;
// an entry claimed before the prepass (K_⊤'s) is not counted again. In
// optimized mode the pair {x, y} is claimed when both directions are
// proven: y ∈ rows[x] (x ⊑ y) and y ∈ K_x (y ⊑ x), where x ⊑ ⊤ needs no
// proof. P_x holds only y > x, so each pair is claimed from its smaller
// side and counts two directed tests.
func (s *state) claimProven(rows []*bitset.Set) {
	for x, row := range rows {
		switch {
		case !s.optimized:
			s.count.PreSeeded.Add(int64(s.P[x].ClearSet(s.K[x].Snapshot())))
		case row != nil:
			row.Set(s.top)
			both := s.K[x].Snapshot()
			both.Intersect(row)
			s.count.PreSeeded.Add(2 * int64(s.P[x].ClearSet(both)))
		}
	}
}

// decideRest resolves everything a complete fragment left unproven in a
// resumed run's restored P: its saturation is the exact subsumption
// relation, so a concept not proven unsatisfiable is satisfiable and a
// pair not proven is a non-subsumption. K already holds every proven
// fact, so only the bookkeeping remains: P empties, and each settled
// probe and directed test counts as PreSeeded, two per pair in optimized
// mode. A clean run settles the same tests with decideFresh.
func (s *state) decideRest() {
	for x := 0; x < s.n; x++ {
		if s.satState[x].CompareAndSwap(satUnknown, satYes) {
			s.count.PreSeeded.Add(1)
		}
		s.count.PreSeeded.Add(s.testsPerBit() * int64(s.P[x].Count()))
		s.P[x].ClearAll()
	}
}

// decideFresh is decideRest for a clean run with a complete fragment,
// which has no P: the P initSets would have built, after the prepass
// marked the u unsatisfiable concepts, holds exactly the possible pairs
// among the m = n − u satisfiable ones, ⊤ included. So the same tests
// count from m alone: the m − 1 sat? probes left, and m(m − 1) directed
// tests in optimized mode or (m − 1)² in basic mode.
func (s *state) decideFresh() {
	m := 0
	for x := range s.satState {
		if s.satState[x].CompareAndSwap(satUnknown, satYes) {
			s.count.PreSeeded.Add(1)
		}
		if s.satState[x].Load() == satYes {
			m++
		}
	}
	s.count.PreSeeded.Add(s.testsPerBit() * s.possibleAmong(m))
}

// testsPerBit is the number of directed tests one P bit stands for: a
// pair's two in optimized mode, one in basic mode.
func (s *state) testsPerBit() int64 {
	if s.optimized {
		return 2
	}
	return 1
}
