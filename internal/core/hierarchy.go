package core

import (
	"time"

	"parowl/internal/bitset"
	"parowl/internal/taxonomy"
)

// buildTaxonomy is phase 3 (Sec. III-B, Algorithm 4): once P is empty,
// the K sets contain the discovered subsumptions. Equivalence classes are
// contracted, the contracted rows are closed transitively, then a partial
// hierarchy H_X — the direct subsumees of X — is computed for every class
// in parallel (the divide step), and the conquer step merges them into
// the final taxonomy.
//
// Its rows come from one of two places. up is nil on a run with K: K is
// loaded once into plain rows (loadK), and phase 3 never writes s.K.
// Otherwise up holds the rows of a complete EL fragment's saturation
// (seed), each concept's proven subsumers, which downRows transposes into
// K's orientation. Both then take the same contraction (contractRows),
// reduction (directChildren) and taxonomy.Build.
//
// Algorithm 4 reduces K_X by deleting every Z ∈ K_Y for Y ∈ K_X. That
// one-step rule is exact only on transitively closed rows. With the
// Section IV pruning active K is partially reduced, so an indirect
// subsumee can sit two or more K-steps below a child: closing K's rows
// once (closeRows) makes every input the closed case. A saturation's rows
// are closed already, so they skip the closure. The reduction is then
// word-parallel row operations (directChildren) — the transitive
// reduction the paper's example computes.
//
// Every pass over the rows works on whole 64-bit words, and a member is
// visited on its own only where it is a mutual pair, a member to remap to
// its class, or not yet covered. It returns, with the taxonomy, the
// hierarchy it passed to taxonomy.Build: the final checkpoint stores
// that, so Adopt and a resume of the finished run call Build on the same
// arguments and get the identical taxonomy without phase 3.
func (s *state) buildTaxonomy(p *pool, up []*bitset.Set, trace *Trace) (*taxonomy.Taxonomy, hierarchy, error) {
	n := s.n
	start := time.Now()
	var kc []*bitset.Set
	if up != nil {
		kc = s.downRows(up)
	} else {
		kc = s.loadK()
	}
	rep := contractRows(kc)
	contracted := time.Since(start)

	// K's closure is sequential; it runs as one pool task so the trace
	// charges it to phase 3 like the reduction that follows. Loading or
	// transposing the rows and the contraction are charged to the same
	// record.
	if up == nil {
		p.submit(func() time.Duration {
			start := time.Now()
			closeRows(kc)
			return time.Since(start)
		})
	}
	c := p.barrier()
	c.chargeOutside(contracted)
	s.record(trace, PhaseHierarchy, 1, c)

	// Divide: H_X for every class, the classes dealt round-robin over a
	// few tasks per worker so each task reuses one scratch row.
	var classes []int
	for x, row := range kc {
		if row != nil && !row.IsEmpty() {
			classes = append(classes, x)
		}
	}
	direct := make([][]int, n)
	tasks := min(len(classes), 4*p.workers)
	for t := 0; t < tasks; t++ {
		p.submit(func() time.Duration {
			start := time.Now()
			below := bitset.New(n)
			for i := t; i < len(classes); i += tasks {
				x := classes[i]
				direct[x] = directChildren(kc[x], kc, below)
			}
			return time.Since(start)
		})
	}
	c = p.barrier()
	if err := s.errOrNil(); err != nil {
		return nil, hierarchy{}, err
	}

	// Conquer: merge the partial hierarchies into the taxonomy, straight
	// from the classes and H_X by index, charged to the divide step's
	// record. An unsatisfiable concept's class is ⊥.
	start = time.Now()
	for x := range rep {
		if s.satState[x].Load() == satNo {
			rep[x] = -1
		}
	}
	tax, err := taxonomy.Build(s.tbox.Factory, s.named, rep, direct)
	c.chargeOutside(time.Since(start))
	s.record(trace, PhaseHierarchy, 2, c)
	return tax, hierarchy{class: rep, children: direct}, err
}

// loadK loads K once into phase 3's plain rows. Unsatisfiable concepts
// go to ⊥ and take no further part: their rows are nil and their bits
// are masked out of every other row, a word at a time. No row holds its
// own concept.
func (s *state) loadK() []*bitset.Set {
	n := s.n
	unsat := bitset.New(n)
	for x := 0; x < n; x++ {
		if s.satState[x].Load() == satNo {
			unsat.Set(x)
		}
	}
	masked := !unsat.IsEmpty()
	kc := make([]*bitset.Set, n)
	for x := 0; x < n; x++ {
		if unsat.Test(x) {
			continue
		}
		row := s.K[x].Snapshot()
		if masked {
			row.Subtract(unsat)
		}
		row.Clear(x)
		kc[x] = row
	}
	return kc
}

// downRows turns a complete fragment's saturation rows (up[x]: the
// proven subsumers of x, with neither x, ⊤ nor an unsatisfiable concept
// among them) into the rows loadK would load from the K that seed and
// initSets would have built: row y holds every x proven x ⊑ y (one
// blocked transpose), ⊤'s row every satisfiable concept but ⊤, and an
// unsatisfiable concept's row is nil.
func (s *state) downRows(up []*bitset.Set) []*bitset.Set {
	kc := bitset.Transpose(up, s.n)
	for x := range kc {
		switch {
		case s.satState[x].Load() == satNo:
			kc[x] = nil
		case x != s.top:
			kc[s.top].Set(x)
		}
	}
	return kc
}

// contractRows contracts the equivalence classes of phase 3's rows in
// place (Algorithm 4's setEquivalentConcept): afterwards kc is non-nil
// exactly at each class's representative, and it returns every concept's
// representative. A nil row is an unsatisfiable concept's and stays out.
//
// A class is a set of concepts joined by mutual membership, found from
// 64×64 tile pairs (bitset.MutualPairs); union-find keeps the smallest
// index as the root, so the classes and their representatives do not
// depend on the order the pairs come in. When no class has two members,
// the rows are already contracted. Otherwise each representative's row
// takes the OR of its members' rows, and the bits of non-representatives
// move to their representatives.
func contractRows(kc []*bitset.Set) (rep []int) {
	n := len(kc)
	rep = make([]int, n)
	for i := range rep {
		rep[i] = i
	}
	find := func(i int) int {
		for rep[i] != i {
			rep[i] = rep[rep[i]]
			i = rep[i]
		}
		return i
	}
	merged := false
	bitset.MutualPairs(kc, func(x, y int) {
		if rx, ry := find(x), find(y); rx != ry {
			rep[max(rx, ry)] = min(rx, ry)
			merged = true
		}
	})
	if !merged {
		return rep
	}

	// keep holds every index but the non-representatives, so a row's
	// members outside it are exactly the bits to move.
	keep := bitset.New(n)
	keep.FillAll()
	for x := range rep {
		if r := find(x); r != x {
			rep[x] = r
			keep.Clear(x)
			kc[r].Union(kc[x])
			kc[x] = nil
		}
	}
	for r, row := range kc {
		if row == nil {
			continue
		}
		for m := row.NextAndNot(keep, 0); m >= 0; m = row.NextAndNot(keep, m+1) {
			row.Clear(m)
			row.Set(rep[m])
		}
		row.Clear(r)
	}
	return rep
}

// closeRows replaces every contracted row kc[x] with its transitive
// closure — every class below x — in place. Classes are closed children
// first, in the post-order of an iterative depth-first search over the
// class DAG, so the rows of x's members are closed when x's is built;
// like directChildren it then ORs in only the rows of members an earlier
// member's row does not already cover. Both the search and the closure
// step over members already seen or covered a word at a time
// (NextAndNot) and visit the rest in ascending order. A K cycle between
// distinct classes can only come from degraded tests leaving an
// equivalence one-sided; the search ignores the edge that closes it, so
// the closure may stay partial there, but every bit in it is still a
// proven subsumption.
func closeRows(kc []*bitset.Set) {
	order := make([]int, 0, len(kc))
	seen := bitset.New(len(kc))
	type frame struct{ x, next int }
	var stack []frame
	for root, row := range kc {
		if row == nil || seen.Test(root) {
			continue
		}
		seen.Set(root)
		stack = append(stack, frame{x: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			y := kc[f.x].NextAndNot(seen, f.next)
			if y < 0 {
				order = append(order, f.x)
				stack = stack[:len(stack)-1]
				continue
			}
			f.next = y + 1
			seen.Set(y)
			stack = append(stack, frame{x: y})
		}
	}
	covered := bitset.New(len(kc))
	for _, x := range order {
		covered.ClearAll()
		row := kc[x]
		for y := row.NextAndNot(covered, 0); y >= 0; y = row.NextAndNot(covered, y+1) {
			covered.Union(kc[y])
		}
		row.Union(covered)
	}
}

// directChildren is Algorithm 4's one-step rule on a closed row: a member
// Y of K_X is a direct child unless it lies in K_Z for another member Z.
// below accumulates the union of the members' rows; a member already in
// it is skipped, because its closed row is inside the row that covered
// it. The direct children are row &^ below, returned in ascending order.
// below is scratch of the rows' length.
func directChildren(row *bitset.Set, kc []*bitset.Set, below *bitset.Set) []int {
	below.ClearAll()
	for y := row.NextAndNot(below, 0); y >= 0; y = row.NextAndNot(below, y+1) {
		below.Union(kc[y])
	}
	var out []int
	for y := row.NextAndNot(below, 0); y >= 0; y = row.NextAndNot(below, y+1) {
		out = append(out, y)
	}
	return out
}
