package taxonomy

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"parowl/internal/dl"
)

// Builder assembles a Taxonomy from equivalences and direct edges. The
// classifier's conquer phase feeds it the partial hierarchies H_X; tests
// and baselines feed it full subsumer sets via FromSubsumers.
type Builder struct {
	factory  *dl.Factory
	concepts []*dl.Concept
	index    map[*dl.Concept]int
	parent   []int // union-find
	unsat    map[*dl.Concept]bool
	edges    map[[2]*dl.Concept]bool // parent, child (as given)
}

// NewBuilder returns a Builder over the given factory's ⊤/⊥ plus the
// named concepts added later.
func NewBuilder(f *dl.Factory) *Builder {
	b := &Builder{
		factory: f,
		index:   make(map[*dl.Concept]int),
		unsat:   make(map[*dl.Concept]bool),
		edges:   make(map[[2]*dl.Concept]bool),
	}
	b.AddConcept(f.Top())
	b.AddConcept(f.Bottom())
	return b
}

// AddConcept registers c as a taxonomy member. It is idempotent.
func (b *Builder) AddConcept(c *dl.Concept) {
	if _, ok := b.index[c]; ok {
		return
	}
	b.index[c] = len(b.concepts)
	b.concepts = append(b.concepts, c)
	b.parent = append(b.parent, len(b.parent))
}

func (b *Builder) find(i int) int {
	for b.parent[i] != i {
		b.parent[i] = b.parent[b.parent[i]]
		i = b.parent[i]
	}
	return i
}

// MarkEquivalent merges the equivalence classes of x and y.
func (b *Builder) MarkEquivalent(x, y *dl.Concept) {
	b.AddConcept(x)
	b.AddConcept(y)
	rx, ry := b.find(b.index[x]), b.find(b.index[y])
	if rx != ry {
		b.parent[rx] = ry
	}
}

// MarkUnsatisfiable places c in the ⊥ class.
func (b *Builder) MarkUnsatisfiable(c *dl.Concept) {
	b.AddConcept(c)
	b.unsat[c] = true
	b.MarkEquivalent(c, b.factory.Bottom())
}

// AddEdge records that parent directly subsumes child.
func (b *Builder) AddEdge(parent, child *dl.Concept) {
	b.AddConcept(parent)
	b.AddConcept(child)
	b.edges[[2]*dl.Concept{parent, child}] = true
}

// Build produces the immutable Taxonomy: equivalence classes become
// nodes, edges are lifted to class representatives and deduplicated,
// parentless satisfiable classes attach below ⊤, and the ⊥ node attaches
// below the leaves when it holds unsatisfiable concepts.
func (b *Builder) Build() (*Taxonomy, error) {
	f := b.factory
	classNode := make([]*Node, len(b.concepts)) // union-find root -> node
	var nodes []*Node
	t := &Taxonomy{byConcept: make(map[*dl.Concept]*Node, len(b.concepts))}
	for i, c := range b.concepts {
		root := b.find(i)
		n := classNode[root]
		if n == nil {
			n = &Node{}
			classNode[root] = n
			nodes = append(nodes, n)
		}
		n.Concepts = append(n.Concepts, c)
		t.byConcept[c] = n
	}
	t.top = t.byConcept[f.Top()]
	t.bottom = t.byConcept[f.Bottom()]
	if t.top == t.bottom {
		return nil, fmt.Errorf("taxonomy: ⊤ and ⊥ collapsed (inconsistent input)")
	}
	for _, n := range nodes {
		if len(n.Concepts) > 1 {
			sort.Slice(n.Concepts, func(i, j int) bool {
				return classLess(n.Concepts[i], n.Concepts[j])
			})
		}
	}
	// Lift edges to nodes.
	edgeSet := make(map[[2]*Node]bool, len(b.edges))
	for e := range b.edges {
		p, c := t.byConcept[e[0]], t.byConcept[e[1]]
		if p == c || c == t.bottom || p == t.bottom {
			continue
		}
		edgeSet[[2]*Node{p, c}] = true
	}
	for e := range edgeSet {
		e[0].children = append(e[0].children, e[1])
		e[1].parents = append(e[1].parents, e[0])
	}
	// Attach parentless classes under ⊤ and wire ⊥ under the leaves.
	var leaves []*Node
	for _, n := range nodes {
		if n == t.top || n == t.bottom {
			continue
		}
		if len(n.parents) == 0 {
			n.parents = append(n.parents, t.top)
			t.top.children = append(t.top.children, n)
		}
		if len(n.children) == 0 {
			leaves = append(leaves, n)
		}
	}
	if len(leaves) == 0 {
		leaves = []*Node{t.top}
	}
	for _, l := range leaves {
		l.children = append(l.children, t.bottom)
		t.bottom.parents = append(t.bottom.parents, l)
	}
	// Deterministic ordering everywhere: each node's label is computed
	// once, to rank the nodes, and every list sorts by rank.
	labels := make([]string, len(nodes))
	for i, n := range nodes {
		labels[i] = n.Label()
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return strings.Compare(labels[i], labels[j]) })
	t.nodes = make([]*Node, 0, len(nodes))
	t.nodes = append(t.nodes, t.top)
	for r, i := range order {
		n := nodes[i]
		n.rank = r
		if n != t.top && n != t.bottom {
			t.nodes = append(t.nodes, n)
		}
	}
	t.nodes = append(t.nodes, t.bottom)
	for _, n := range nodes {
		sortNodes(n.parents)
		sortNodes(n.children)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
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

// sortNodes orders nodes of one taxonomy by label, through the label
// rank Build gave each node.
func sortNodes(ns []*Node) {
	slices.SortFunc(ns, func(a, b *Node) int { return a.rank - b.rank })
}

// validate checks the taxonomy is a DAG rooted at ⊤.
func (t *Taxonomy) validate() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, len(t.nodes)) // by rank
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch color[n.rank] {
		case gray:
			return fmt.Errorf("taxonomy: cycle through %s", n.Label())
		case black:
			return nil
		}
		color[n.rank] = gray
		for _, c := range n.children {
			if err := visit(c); err != nil {
				return err
			}
		}
		color[n.rank] = black
		return nil
	}
	if err := visit(t.top); err != nil {
		return err
	}
	for _, n := range t.nodes {
		if color[n.rank] != black {
			return fmt.Errorf("taxonomy: node %s unreachable from ⊤", n.Label())
		}
	}
	return nil
}

// FromSubsumers builds the taxonomy given, for every named concept, its
// full set of named subsumers (reflexive). Concepts marked unsatisfiable
// go to ⊥. This is the reference construction used by the sequential
// baselines and by tests as ground truth: mutual subsumption becomes
// equivalence, and direct edges are computed by transitive reduction.
func FromSubsumers(f *dl.Factory, subsumers map[*dl.Concept]map[*dl.Concept]bool, unsat map[*dl.Concept]bool) (*Taxonomy, error) {
	b := NewBuilder(f)
	var sat []*dl.Concept
	for c := range subsumers {
		b.AddConcept(c)
		if unsat[c] {
			b.MarkUnsatisfiable(c)
		} else {
			sat = append(sat, c)
		}
	}
	sort.Slice(sat, func(i, j int) bool { return sat[i].Name < sat[j].Name })
	// Equivalences: mutual subsumption.
	strict := make(map[*dl.Concept][]*dl.Concept, len(sat)) // strict subsumers
	for _, c := range sat {
		for s := range subsumers[c] {
			if s == c || unsat[s] || s.Op != dl.OpName {
				continue
			}
			if subsumers[s][c] {
				b.MarkEquivalent(c, s)
			} else {
				strict[c] = append(strict[c], s)
			}
		}
	}
	// Direct edges: s is a direct subsumer of c if no other strict
	// subsumer of c is strictly below s.
	for _, c := range sat {
		for _, s := range strict[c] {
			direct := true
			for _, mid := range strict[c] {
				if mid == s || subsumers[mid][s] && subsumers[s][mid] {
					continue
				}
				if subsumers[mid][s] { // mid ⊑ s strictly: s not direct
					direct = false
					break
				}
			}
			if direct {
				b.AddEdge(s, c)
			}
		}
	}
	return b.Build()
}
