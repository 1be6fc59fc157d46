package taxonomy

import (
	"fmt"
	"sort"
	"strings"

	"parowl/internal/dl"
)

// Depth returns the length of the longest path from ⊤ to c's node
// (⊤ itself has depth 0), or -1 if c is not in the taxonomy.
func (t *Taxonomy) Depth(c *dl.Concept) int {
	if k := t.kernel.Load(); k != nil {
		return k.Depth(c)
	}
	n := t.byConcept[c]
	if n == nil {
		return -1
	}
	memo := map[*Node]int{}
	var depth func(x *Node) int
	depth = func(x *Node) int {
		if x == t.top {
			return 0
		}
		if d, ok := memo[x]; ok {
			return d
		}
		memo[x] = 0 // cycle guard; the builder validated acyclicity
		best := 0
		for _, p := range x.parents {
			if d := depth(p) + 1; d > best {
				best = d
			}
		}
		memo[x] = best
		return best
	}
	return depth(n)
}

// LCA returns the lowest common ancestors of a and b: the ancestor nodes
// (including the nodes themselves, treated reflexively) of both that have
// no descendant which is also a common ancestor. For tree-shaped
// taxonomies this is the single classical LCA; in a DAG there can be
// several.
func (t *Taxonomy) LCA(a, b *dl.Concept) []*Node {
	if k := t.kernel.Load(); k != nil {
		return k.LCA(a, b)
	}
	na, nb := t.byConcept[a], t.byConcept[b]
	if na == nil || nb == nil {
		return nil
	}
	ancSet := func(n *Node) map[*Node]bool {
		out := map[*Node]bool{n: true}
		var up func(x *Node)
		up = func(x *Node) {
			for _, p := range x.parents {
				if !out[p] {
					out[p] = true
					up(p)
				}
			}
		}
		up(n)
		return out
	}
	common := ancSet(na)
	other := ancSet(nb)
	var shared []*Node
	for n := range common {
		if other[n] {
			shared = append(shared, n)
		}
	}
	sharedSet := make(map[*Node]bool, len(shared))
	for _, n := range shared {
		sharedSet[n] = true
	}
	var lowest []*Node
	for _, n := range shared {
		// A candidate is dominated iff some strict descendant is shared.
		// The shared set is upward-closed (every ancestor of a common
		// ancestor is itself a common ancestor), so if any strict
		// descendant d of n is shared, the first step of a path n→…→d is
		// an ancestor of d and hence shared too: checking the direct
		// children suffices, no full Descendants traversal needed.
		dominated := false
		for _, ch := range n.children {
			if sharedSet[ch] {
				dominated = true
				break
			}
		}
		if !dominated {
			lowest = append(lowest, n)
		}
	}
	sortNodes(lowest)
	return lowest
}

// allDepths returns the longest ⊤-path length for every node, indexed by
// ID: the kernel's depth table, or the level of each node in one shared
// topological pass over the parents instead of one memoized DFS per node.
func (t *Taxonomy) allDepths() []int {
	out := make([]int, len(t.nodes))
	if k := t.kernel.Load(); k != nil {
		for i, d := range k.depth {
			out[i] = int(d)
		}
		return out
	}
	for d, level := range levels(t.nodes) {
		for _, x := range level {
			out[x] = d
		}
	}
	return out
}

// Summary aggregates structural statistics of the taxonomy.
type Summary struct {
	Classes       int // nodes including ⊤ and ⊥
	Concepts      int // named concepts placed (excluding ⊤/⊥ themselves)
	Equivalences  int // concepts sharing a node with another concept
	Unsatisfiable int // concepts in the ⊥ node
	MaxDepth      int
	// RootClasses counts direct children of ⊤; AvgChildren is the mean
	// out-degree over non-leaf internal nodes (⊥ edges excluded).
	RootClasses int
	AvgChildren float64
}

func (s Summary) String() string {
	return fmt.Sprintf("classes=%d concepts=%d equivalences=%d unsat=%d maxDepth=%d roots=%d avgChildren=%.2f",
		s.Classes, s.Concepts, s.Equivalences, s.Unsatisfiable, s.MaxDepth, s.RootClasses, s.AvgChildren)
}

// Summarize computes the Summary.
func (t *Taxonomy) Summarize() Summary {
	s := Summary{Classes: len(t.nodes)}
	for _, n := range t.nodes {
		for _, c := range n.Concepts {
			if c.Op == dl.OpName {
				s.Concepts++
				if n == t.bottom {
					s.Unsatisfiable++
				} else if len(n.Concepts) > 1 {
					s.Equivalences++
				}
			}
		}
	}
	for _, ch := range t.top.children {
		if ch != t.bottom {
			s.RootClasses++
		}
	}
	internal, edges := 0, 0
	depths := t.allDepths()
	for i, n := range t.nodes {
		if n == t.bottom {
			continue
		}
		kids := 0
		for _, ch := range n.children {
			if ch != t.bottom {
				kids++
			}
		}
		if kids > 0 {
			internal++
			edges += kids
		}
		if d := depths[i]; d > s.MaxDepth {
			s.MaxDepth = d
		}
	}
	if internal > 0 {
		s.AvgChildren = float64(edges) / float64(internal)
	}
	return s
}

// DOT renders the taxonomy in Graphviz DOT format, one box per
// equivalence class, edges from parent to child, ⊥ omitted unless it
// holds unsatisfiable concepts.
func (t *Taxonomy) DOT() string {
	var b strings.Builder
	b.WriteString("digraph taxonomy {\n  rankdir=BT;\n  node [shape=box];\n")
	showBottom := len(t.bottom.Concepts) > 1
	for _, n := range t.nodes {
		if n == t.bottom && !showBottom {
			continue
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n.id, n.Label())
	}
	var lines []string
	for _, n := range t.nodes {
		if n == t.bottom && !showBottom {
			continue
		}
		for _, p := range n.parents {
			lines = append(lines, fmt.Sprintf("  n%d -> n%d;", n.id, p.id))
		}
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	b.WriteString("\n}\n")
	return b.String()
}
