package core

import (
	"context"
	"fmt"

	"parowl/internal/dl"
	"parowl/internal/reasoner"
	"parowl/internal/taxonomy"
)

// EnhancedTraversal is the classical sequential insertion-based
// classification algorithm used by Racer, FaCT++ and HermiT and refined
// in the paper's reference [15] (Glimm et al., "A novel approach to
// ontology classification"). Concepts are inserted one at a time: a top
// search walks down from ⊤ to find the direct subsumers, then a bottom
// search walks down from those parents to find the direct subsumees.
// It performs far fewer subsumption tests than the brute-force O(n²)
// but is inherently sequential — the baseline the paper's parallel
// architecture is measured against.
func EnhancedTraversal(t *dl.TBox, r reasoner.Interface) (*taxonomy.Taxonomy, error) {
	return EnhancedTraversalContext(context.Background(), t, r)
}

// EnhancedTraversalContext is EnhancedTraversal with cancellation: the
// context is threaded into every reasoner call and checked between
// concept insertions, so a cancelled run stops within one test.
func EnhancedTraversalContext(ctx context.Context, t *dl.TBox, r reasoner.Interface) (*taxonomy.Taxonomy, error) {
	t.Freeze()
	e := &traversal{
		ctx:      ctx,
		f:        t.Factory,
		r:        r,
		parents:  [][]int{nil},
		children: [][]int{nil},
		concepts: []*dl.Concept{t.Factory.Top()},
	}
	// joined lists the concepts that joined an existing node or ⊥;
	// joinedClass holds that node's index, or -1 for ⊥.
	var joined []*dl.Concept
	var joinedClass []int
	for _, c := range t.NamedConcepts() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: classification cancelled: %w", err)
		}
		sat, err := r.Sat(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("core: sat?(%v): %w", c, err)
		}
		x := -1
		if sat {
			if x, err = e.insert(c); err != nil {
				return nil, err
			}
		}
		if x < 0 || e.concepts[x] != c {
			joined = append(joined, c)
			joinedClass = append(joinedClass, x)
		}
	}
	class := make([]int, len(e.concepts), len(e.concepts)+len(joined))
	for x := range class {
		class[x] = x
	}
	class = append(class, joinedClass...)
	return taxonomy.Build(t.Factory, append(e.concepts, joined...), class, e.children)
}

// traversal holds the growing classification DAG; node 0 is ⊤.
type traversal struct {
	ctx      context.Context
	f        *dl.Factory
	r        reasoner.Interface
	concepts []*dl.Concept
	parents  [][]int
	children [][]int
}

// subsumes memoizes nothing itself — wrap the reasoner in
// reasoner.NewCached for dedup — and maps errors outward.
func (e *traversal) subsumes(sup, sub *dl.Concept) (bool, error) {
	ok, err := e.r.Subs(e.ctx, sup, sub)
	if err != nil {
		return false, fmt.Errorf("core: subs?(%v, %v): %w", sup, sub, err)
	}
	return ok, nil
}

// insert places the satisfiable concept c in the DAG and returns the node
// it is in: a new node, or the node of an equivalent concept it joins.
func (e *traversal) insert(c *dl.Concept) (int, error) {
	parents, err := e.topSearch(c)
	if err != nil {
		return 0, err
	}
	// Equivalence: a direct subsumer that c also subsumes is equivalent
	// to c; c then joins that node instead of being inserted.
	for _, p := range parents {
		eq, err := e.subsumes(c, e.concepts[p])
		if err != nil {
			return 0, err
		}
		if eq {
			return p, nil
		}
	}
	children, err := e.bottomSearch(c, parents)
	if err != nil {
		return 0, err
	}
	childSet := make(map[int]bool, len(children))
	for _, y := range children {
		childSet[y] = true
	}
	id := len(e.concepts)
	e.concepts = append(e.concepts, c)
	e.parents = append(e.parents, parents)
	e.children = append(e.children, children)
	// Remove parent→child edges now routed through c.
	for _, p := range parents {
		if len(children) > 0 {
			e.children[p] = removeAll(e.children[p], childSet)
		}
		e.children[p] = append(e.children[p], id)
	}
	for _, y := range children {
		keep := e.parents[y][:0]
		for _, pp := range e.parents[y] {
			if !containsInt(parents, pp) {
				keep = append(keep, pp)
			}
		}
		e.parents[y] = append(keep, id)
	}
	return id, nil
}

// topSearch returns the direct subsumers of c: the lowest nodes x with
// c ⊑ x, found by descending from ⊤ only into subsuming children.
func (e *traversal) topSearch(c *dl.Concept) ([]int, error) {
	memo := map[int]bool{0: true} // c ⊑ ⊤ always
	var holds func(x int) (bool, error)
	holds = func(x int) (bool, error) {
		if v, ok := memo[x]; ok {
			return v, nil
		}
		v, err := e.subsumes(e.concepts[x], c)
		if err != nil {
			return false, err
		}
		memo[x] = v
		return v, nil
	}
	var parents []int
	seen := map[int]bool{}
	var visit func(x int) error
	visit = func(x int) error {
		if seen[x] {
			return nil
		}
		seen[x] = true
		lowest := true
		for _, y := range e.children[x] {
			ok, err := holds(y)
			if err != nil {
				return err
			}
			if ok {
				lowest = false
				if err := visit(y); err != nil {
					return err
				}
			}
		}
		if lowest && !containsInt(parents, x) {
			parents = append(parents, x)
		}
		return nil
	}
	if err := visit(0); err != nil {
		return nil, err
	}
	return parents, nil
}

// bottomSearch returns the direct subsumees of c among the descendants of
// its parents: descending from each parent, a node y with y ⊑ c is a
// direct child (its own descendants are indirect); other nodes are
// explored further.
func (e *traversal) bottomSearch(c *dl.Concept, parents []int) ([]int, error) {
	var children []int
	seen := map[int]bool{}
	memo := map[int]bool{}
	var visit func(y int) error
	visit = func(y int) error {
		if seen[y] {
			return nil
		}
		seen[y] = true
		below, ok := memo[y]
		if !ok {
			var err error
			below, err = e.subsumes(c, e.concepts[y])
			if err != nil {
				return err
			}
			memo[y] = below
		}
		if below {
			if !containsInt(children, y) {
				children = append(children, y)
			}
			return nil
		}
		for _, z := range e.children[y] {
			if err := visit(z); err != nil {
				return err
			}
		}
		return nil
	}
	for _, p := range parents {
		for _, y := range e.children[p] {
			if err := visit(y); err != nil {
				return nil, err
			}
		}
	}
	// Keep only the maximal candidates (a candidate strictly below
	// another is indirect).
	return maximal(children, e), nil
}

func maximal(cands []int, e *traversal) []int {
	out := cands[:0]
	for _, y := range cands {
		dominated := false
		for _, z := range cands {
			if z != y && e.isAncestorNode(z, y) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, y)
		}
	}
	return out
}

// isAncestorNode reports whether a is an ancestor of d in the current DAG.
func (e *traversal) isAncestorNode(a, d int) bool {
	if a == d {
		return false
	}
	seen := map[int]bool{}
	var up func(x int) bool
	up = func(x int) bool {
		if x == a {
			return true
		}
		if seen[x] {
			return false
		}
		seen[x] = true
		for _, p := range e.parents[x] {
			if up(p) {
				return true
			}
		}
		return false
	}
	return up(d)
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func removeAll(s []int, drop map[int]bool) []int {
	out := s[:0]
	for _, x := range s {
		if !drop[x] {
			out = append(out, x)
		}
	}
	return out
}
