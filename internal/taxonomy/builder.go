package taxonomy

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"parowl/internal/dl"
)

// Build assembles the immutable Taxonomy from concepts given by index.
// class[i] is the index of concepts[i]'s class representative
// (class[r] == r), or -1 for an unsatisfiable concept, which joins the ⊥
// node with f.Bottom(). children[r] lists the direct subclasses of
// representative r, each once; it may be shorter than concepts. concepts
// must include f.Top().
//
// Parentless classes attach below ⊤ and ⊥ attaches below the leaves. Each
// node's ID is its position in Nodes(): ⊤ = 0, ⊥ = n−1, the rest in label
// order; every parent and child list ascends by ID, so a child list is in
// label order too. The classifier's conquer phase, the enhanced traversal
// and FromSubsumers all end here.
func Build(f *dl.Factory, concepts []*dl.Concept, class []int, children [][]int) (*Taxonomy, error) {
	// Every count is known up front: class sizes from class, out-degrees
	// from children. Nodes, class members and edges are each cut from one
	// backing array.
	size := make([]int, len(concepts)) // size[r]: members of class r
	classes, unsat := 0, 0
	for _, r := range class {
		if r < 0 {
			unsat++
			continue
		}
		if size[r] == 0 {
			classes++
		}
		size[r]++
	}
	t := &Taxonomy{byConcept: make(map[*dl.Concept]*Node, len(concepts)+1)}
	nodes := make([]Node, 0, classes+1)
	members := make([]*dl.Concept, 0, len(concepts)+1)
	nodes = append(nodes, Node{Concepts: append(carve(&members, unsat+1), f.Bottom())})
	t.bottom = &nodes[0]
	t.byConcept[f.Bottom()] = t.bottom
	at := make([]*Node, len(concepts)) // concept index → its node
	for i, c := range concepts {
		n := t.bottom
		if r := class[i]; r >= 0 {
			if at[r] == nil {
				nodes = append(nodes, Node{Concepts: carve(&members, size[r])})
				at[r] = &nodes[len(nodes)-1]
			}
			n = at[r]
		}
		at[i] = n
		n.Concepts = append(n.Concepts, c)
		t.byConcept[c] = n
	}
	t.top = t.byConcept[f.Top()]
	if t.top == t.bottom {
		return nil, fmt.Errorf("taxonomy: ⊤ and ⊥ collapsed (inconsistent input)")
	}

	// IDs: ⊤, then the other nodes in label order, then ⊥. Each label is
	// computed once, after its class is sorted.
	mid := make([]*Node, 0, len(nodes))
	labels := make([]string, 0, len(nodes))
	for k := range nodes {
		n := &nodes[k]
		if len(n.Concepts) > 1 {
			sort.Slice(n.Concepts, func(i, j int) bool {
				return classLess(n.Concepts[i], n.Concepts[j])
			})
		}
		if n != t.top && n != t.bottom {
			mid = append(mid, n)
			labels = append(labels, n.Label())
		}
	}
	order := make([]int, len(mid))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return strings.Compare(labels[i], labels[j]) })
	t.nodes = make([]*Node, 0, len(nodes))
	t.nodes = append(t.nodes, t.top)
	for _, i := range order {
		t.nodes = append(t.nodes, mid[i])
	}
	t.nodes = append(t.nodes, t.bottom)
	for id, n := range t.nodes {
		n.id = id
	}

	// Degrees by ID, ⊤'s and ⊥'s edges included: parentless classes take
	// ⊤, and the leaves take ⊥. Every list is then cut to its degree.
	kids := make([][]int, len(t.nodes))
	up, down := make([]int, len(t.nodes)), make([]int, len(t.nodes))
	for r, ys := range children {
		if len(ys) > 0 {
			kids[at[r].id] = ys
			down[at[r].id] = len(ys)
			for _, y := range ys {
				up[at[y].id]++
			}
		}
	}
	last := len(t.nodes) - 1 // ⊥
	for id := 1; id < last; id++ {
		if up[id] == 0 {
			up[id], down[0] = 1, down[0]+1
		}
	}
	edges := 0
	for id := range last {
		if down[id] == 0 {
			down[id], up[last] = 1, up[last]+1
		}
		edges += down[id]
	}
	ups, downs := make([]*Node, 0, edges), make([]*Node, 0, edges)
	for id, n := range t.nodes {
		n.parents, n.children = carve(&ups, up[id]), carve(&downs, down[id])
	}

	// Edges, each list built in ascending ID order: parents by visiting
	// the parents in ID order, children by visiting the children in ID
	// order.
	for id, ys := range kids {
		for _, y := range ys {
			at[y].parents = append(at[y].parents, t.nodes[id])
		}
	}
	inner := t.nodes[:last]
	for _, n := range inner {
		if len(n.parents) == 0 && n != t.top {
			n.parents = append(n.parents, t.top)
		}
		for _, p := range n.parents {
			p.children = append(p.children, n)
		}
	}
	for _, n := range inner {
		if len(n.children) == 0 {
			n.children = append(n.children, t.bottom)
			t.bottom.parents = append(t.bottom.parents, n)
		}
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// carve takes the next k elements of buf's spare capacity and returns
// them as an empty slice of capacity k, so appends to it stay in buf.
func carve[T any](buf *[]T, k int) []T {
	b := *buf
	*buf = b[:len(b)+k]
	return b[len(b) : len(b) : len(b)+k]
}

// classLess orders ⊤ and ⊥ first within a class so Canonical is stable.
func classLess(a, b *dl.Concept) bool {
	ra, rb := rank(a), rank(b)
	if ra != rb {
		return ra < rb
	}
	return a.Name < b.Name
}

func rank(c *dl.Concept) int {
	switch c.Op {
	case dl.OpTop, dl.OpBottom:
		return 0
	default:
		return 1
	}
}

// sortNodes orders nodes of one taxonomy by ID, which is label order
// between ⊤ and ⊥.
func sortNodes(ns []*Node) {
	slices.SortFunc(ns, func(a, b *Node) int { return a.id - b.id })
}

// validate checks the taxonomy is a DAG rooted at ⊤.
func (t *Taxonomy) validate() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, len(t.nodes)) // by ID
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch color[n.id] {
		case gray:
			return fmt.Errorf("taxonomy: cycle through %s", n.Label())
		case black:
			return nil
		}
		color[n.id] = gray
		for _, c := range n.children {
			if err := visit(c); err != nil {
				return err
			}
		}
		color[n.id] = black
		return nil
	}
	if err := visit(t.top); err != nil {
		return err
	}
	for _, n := range t.nodes {
		if color[n.id] != black {
			return fmt.Errorf("taxonomy: node %s unreachable from ⊤", n.Label())
		}
	}
	return nil
}

// FromSubsumers builds the taxonomy given, for every named concept, its
// full set of named subsumers (reflexive, over the same concepts).
// Concepts marked unsatisfiable go to ⊥. This is the reference
// construction used by the sequential baselines and by tests as ground
// truth: mutual subsumption becomes equivalence, with the first concept
// by name as the class representative, and direct edges are computed by
// transitive reduction.
func FromSubsumers(f *dl.Factory, subsumers map[*dl.Concept]map[*dl.Concept]bool, unsat map[*dl.Concept]bool) (*Taxonomy, error) {
	concepts := make([]*dl.Concept, 0, len(subsumers)+1)
	for c := range subsumers {
		concepts = append(concepts, c)
	}
	slices.SortFunc(concepts, func(a, b *dl.Concept) int { return strings.Compare(a.Name, b.Name) })
	index := make(map[*dl.Concept]int, len(concepts))
	for i, c := range concepts {
		index[c] = i
	}
	named := len(concepts)
	concepts = append(concepts, f.Top())
	class := make([]int, len(concepts))
	class[named] = named
	strict := make([][]*dl.Concept, named) // strict subsumers
	for i, c := range concepts[:named] {
		class[i] = i
		if unsat[c] {
			class[i] = -1
			continue
		}
		for s := range subsumers[c] {
			if s == c || unsat[s] || s.Op != dl.OpName {
				continue
			}
			if subsumers[s][c] {
				class[i] = min(class[i], index[s])
			} else {
				strict[i] = append(strict[i], s)
			}
		}
	}
	// Direct edges, one per pair of representatives: s is a direct
	// subsumer of c if no other strict subsumer of c is strictly below s.
	children := make([][]int, named)
	for i, ss := range strict {
		if class[i] != i {
			continue
		}
		for _, s := range ss {
			j := index[s]
			if class[j] != j {
				continue
			}
			direct := true
			for _, mid := range ss {
				if subsumers[mid][s] && !subsumers[s][mid] { // mid ⊑ s strictly: s not direct
					direct = false
					break
				}
			}
			if direct {
				children[j] = append(children[j], i)
			}
		}
	}
	return Build(f, concepts, class, children)
}
