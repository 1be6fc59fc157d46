package core

import (
	"time"

	"parowl/internal/bitset"
	"parowl/internal/taxonomy"
)

// buildTaxonomy is phase 3 (Sec. III-B, Algorithm 4): once P is empty,
// the K sets contain the discovered subsumptions. Equivalence classes are
// contracted, the contracted K rows are closed transitively in place,
// then a partial hierarchy H_X — the direct subsumees of X — is computed
// for every class in parallel (the divide step), and the conquer step
// merges them into the final taxonomy.
//
// Algorithm 4 reduces K_X by deleting every Z ∈ K_Y for Y ∈ K_X. That
// one-step rule is exact only on transitively closed rows: with the
// Section IV pruning active K is partially reduced, so an indirect
// subsumee can sit two or more K-steps below a child, while a complete
// EL prepass leaves K fully closed. Closing the rows once (closeRows)
// makes every input the closed case, and the reduction becomes
// word-parallel row operations (directChildren) — the transitive
// reduction the paper's example computes. Phase 3 is a pure function of
// K, so Adopt rebuilds the identical taxonomy from a checkpoint.
func (s *state) buildTaxonomy(p *pool, trace *Trace) (*taxonomy.Taxonomy, error) {
	n := s.n

	// Contract equivalence classes: mutual K membership (Algorithm 4's
	// setEquivalentConcept). Unsatisfiable concepts go to ⊥ and take no
	// further part.
	canon := make([]int, n)
	for i := range canon {
		canon[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for canon[i] != i {
			canon[i] = canon[canon[i]]
			i = canon[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra > rb {
			ra, rb = rb, ra
		}
		if ra != rb {
			canon[rb] = ra
		}
	}
	unsat := func(x int) bool { return s.satState[x].Load() == satNo }
	for x := 0; x < n; x++ {
		if unsat(x) {
			continue
		}
		s.K[x].ForEach(func(y int) bool {
			if !unsat(y) && s.K[y].Test(x) {
				union(x, y)
			}
			return true
		})
	}

	// Contracted K-graph over canonical representatives.
	members := make([][]int, n)
	for m := 0; m < n; m++ {
		if !unsat(m) {
			r := find(m)
			members[r] = append(members[r], m)
		}
	}
	kc := make([]*bitset.Set, n)
	for x := 0; x < n; x++ {
		if unsat(x) || find(x) != x {
			continue
		}
		acc := bitset.New(n)
		for _, member := range members[x] {
			s.K[member].ForEach(func(y int) bool {
				if unsat(y) {
					return true
				}
				if cy := find(y); cy != x {
					acc.Set(cy)
				}
				return true
			})
		}
		kc[x] = acc
	}

	// The closure is sequential; it runs as one pool task so the trace
	// charges it to phase 3 like the reduction that follows.
	p.submit(func() time.Duration {
		start := time.Now()
		closeRows(kc)
		return time.Since(start)
	})
	s.record(trace, PhaseHierarchy, 1, p.barrier())

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
	s.record(trace, PhaseHierarchy, 2, p.barrier())
	if err := s.errOrNil(); err != nil {
		return nil, err
	}

	// Conquer: merge the partial hierarchies top-down into the taxonomy.
	b := taxonomy.NewBuilder(s.tbox.Factory)
	for x := 0; x < n; x++ {
		b.AddConcept(s.named[x])
		if unsat(x) {
			b.MarkUnsatisfiable(s.named[x])
			continue
		}
		if cx := find(x); cx != x {
			b.MarkEquivalent(s.named[cx], s.named[x])
		}
	}
	for x := 0; x < n; x++ {
		for _, child := range direct[x] {
			b.AddEdge(s.named[x], s.named[child])
		}
	}
	return b.Build()
}

// closeRows replaces every contracted row kc[x] with its transitive
// closure — every class below x — in place. Classes are closed children
// first, in the post-order of an iterative depth-first search over the
// class DAG, so the rows of x's members are closed when x's is built;
// like directChildren it then ORs in only the rows of members an earlier
// member's row does not already cover. One scratch row is allocated. A K
// cycle between distinct classes can only come from degraded tests
// leaving an equivalence one-sided; the search ignores the edge that
// closes it, so the closure may stay partial there, but every bit in it
// is still a proven subsumption.
func closeRows(kc []*bitset.Set) {
	order := make([]int, 0, len(kc))
	seen := make([]bool, len(kc))
	type frame struct{ x, next int }
	var stack []frame
	for root, row := range kc {
		if row == nil || seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack, frame{x: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			y := kc[f.x].Next(f.next)
			if y < 0 {
				order = append(order, f.x)
				stack = stack[:len(stack)-1]
				continue
			}
			f.next = y + 1
			if !seen[y] {
				seen[y] = true
				stack = append(stack, frame{x: y})
			}
		}
	}
	covered := bitset.New(len(kc))
	for _, x := range order {
		covered.ClearAll()
		kc[x].ForEach(func(y int) bool {
			if !covered.Test(y) {
				covered.Union(kc[y])
			}
			return true
		})
		kc[x].Union(covered)
	}
}

// directChildren is Algorithm 4's one-step rule on a closed row: a member
// Y of K_X is a direct child unless it lies in K_Z for another member Z.
// below accumulates the union of the members' rows; a member already in
// it is skipped, because its closed row is inside the row that covered
// it. below is scratch of the rows' length.
func directChildren(row *bitset.Set, kc []*bitset.Set, below *bitset.Set) []int {
	below.ClearAll()
	row.ForEach(func(y int) bool {
		if !below.Test(y) {
			below.Union(kc[y])
		}
		return true
	})
	var out []int
	row.ForEach(func(y int) bool {
		if !below.Test(y) {
			out = append(out, y)
		}
		return true
	})
	return out
}
