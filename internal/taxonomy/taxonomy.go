// Package taxonomy represents the result of TBox classification: the
// subsumption hierarchy of all named concepts, with ⊤ as the root
// (paper Sec. II-A, "Classification"). Equivalent concepts share a node;
// edges are the direct (transitively reduced) subsumption relationships;
// unsatisfiable concepts collapse into the ⊥ node.
package taxonomy

import (
	"sort"
	"strings"
	"sync/atomic"

	"parowl/internal/dl"
)

// Node is one equivalence class of the taxonomy.
type Node struct {
	// Concepts holds the members of the equivalence class sorted by
	// name; the first is the canonical representative.
	Concepts []*dl.Concept

	parents  []*Node
	children []*Node
	id       int // position in Taxonomy.Nodes(), the kernel's dense ID
}

// Canonical returns the class representative.
func (n *Node) Canonical() *dl.Concept { return n.Concepts[0] }

// Parents returns the direct superclass nodes.
func (n *Node) Parents() []*Node { return n.parents }

// Children returns the direct subclass nodes.
func (n *Node) Children() []*Node { return n.children }

// Label renders the equivalence class for display.
func (n *Node) Label() string {
	if len(n.Concepts) == 1 {
		return conceptName(n.Concepts[0])
	}
	parts := make([]string, len(n.Concepts))
	for i, c := range n.Concepts {
		parts[i] = conceptName(c)
	}
	return strings.Join(parts, " ≡ ")
}

func conceptName(c *dl.Concept) string {
	switch c.Op {
	case dl.OpTop:
		return "⊤"
	case dl.OpBottom:
		return "⊥"
	default:
		return c.Name
	}
}

// Taxonomy is an immutable classification result. An optional compiled
// query kernel (see Compile) can be attached after construction; the
// queries below delegate to it when present.
type Taxonomy struct {
	top, bottom *Node
	nodes       []*Node // all nodes, top first, bottom last
	byConcept   map[*dl.Concept]*Node

	kernel atomic.Pointer[Kernel]
}

// Kernel returns the attached query kernel, or nil if none was compiled.
func (t *Taxonomy) Kernel() *Kernel { return t.kernel.Load() }

// CompileKernel compiles and attaches the query kernel using `workers`
// goroutines per antichain level (≤ 0 means one per CPU). It is
// idempotent: an already-attached kernel is returned as-is.
func (t *Taxonomy) CompileKernel(workers int) *Kernel {
	if k := t.kernel.Load(); k != nil {
		return k
	}
	var k *Kernel
	if workers <= 0 {
		k = Compile(t)
	} else {
		k = CompileWorkers(t, workers)
	}
	// Racing compilers produce identical kernels; first one wins.
	if !t.kernel.CompareAndSwap(nil, k) {
		return t.kernel.Load()
	}
	return k
}

// Top returns the ⊤ node.
func (t *Taxonomy) Top() *Node { return t.top }

// Bottom returns the ⊥ node (it exists even when no concept is
// unsatisfiable; it is then empty apart from ⊥ itself).
func (t *Taxonomy) Bottom() *Node { return t.bottom }

// Nodes returns all nodes; the caller must not mutate the slice.
func (t *Taxonomy) Nodes() []*Node { return t.nodes }

// NodeOf returns the node containing concept c, or nil.
func (t *Taxonomy) NodeOf(c *dl.Concept) *Node { return t.byConcept[c] }

// Equivalents returns the concepts equivalent to c (including c), or nil
// if c is not in the taxonomy.
func (t *Taxonomy) Equivalents(c *dl.Concept) []*dl.Concept {
	n := t.byConcept[c]
	if n == nil {
		return nil
	}
	return n.Concepts
}

// IsAncestor reports whether anc is a strict ancestor of c in the
// taxonomy (i.e. c ⊑ anc with c ≢ anc).
func (t *Taxonomy) IsAncestor(anc, c *dl.Concept) bool {
	if k := t.kernel.Load(); k != nil {
		return k.IsAncestor(anc, c)
	}
	from, to := t.byConcept[c], t.byConcept[anc]
	if from == nil || to == nil || from == to {
		return false
	}
	seen := map[*Node]bool{}
	var up func(n *Node) bool
	up = func(n *Node) bool {
		if n == to {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for _, p := range n.parents {
			if up(p) {
				return true
			}
		}
		return false
	}
	return up(from)
}

// Ancestors returns all strict ancestor nodes of c.
func (t *Taxonomy) Ancestors(c *dl.Concept) []*Node {
	if k := t.kernel.Load(); k != nil {
		return k.Ancestors(c)
	}
	start := t.byConcept[c]
	if start == nil {
		return nil
	}
	var out []*Node
	seen := map[*Node]bool{start: true}
	var up func(n *Node)
	up = func(n *Node) {
		for _, p := range n.parents {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
				up(p)
			}
		}
	}
	up(start)
	return out
}

// Descendants returns all strict descendant nodes of c.
func (t *Taxonomy) Descendants(c *dl.Concept) []*Node {
	if k := t.kernel.Load(); k != nil {
		return k.Descendants(c)
	}
	start := t.byConcept[c]
	if start == nil {
		return nil
	}
	var out []*Node
	seen := map[*Node]bool{start: true}
	var down func(n *Node)
	down = func(n *Node) {
		for _, ch := range n.children {
			if !seen[ch] {
				seen[ch] = true
				out = append(out, ch)
				down(ch)
			}
		}
	}
	down(start)
	return out
}

// NumClasses returns the number of nodes (including ⊤ and ⊥).
func (t *Taxonomy) NumClasses() int { return len(t.nodes) }

// MemoryFootprint estimates the resident size of the DAG in bytes: node
// structs, their concept/parent/child slices, and the concept index map.
// The attached query kernel is NOT included — callers accounting for a
// whole classified ontology (the owld eviction budget does) add
// Kernel().MemoryFootprint() separately, since the kernel dominates on
// large ontologies and is what eviction actually releases.
func (t *Taxonomy) MemoryFootprint() int {
	const (
		ptrSize      = 8
		nodeSize     = 3 * 3 * ptrSize // three slice headers
		mapEntrySize = 3 * ptrSize     // key, value, bucket overhead, roughly
	)
	total := len(t.byConcept)*mapEntrySize + len(t.nodes)*ptrSize
	for _, n := range t.nodes {
		total += nodeSize + (len(n.Concepts)+len(n.parents)+len(n.children))*ptrSize
	}
	return total
}

// renderRepeat ends a line of Render that repeats a node whose subtree
// is printed at its first occurrence above.
const renderRepeat = " (*)"

// Render writes the taxonomy as an indented tree rooted at ⊤, children
// in label order, which is their ID order. A node with several parents is
// expanded only at its first occurrence in that walk; each later
// occurrence is one line ending in " (*)". Every direct edge so appears
// exactly once and the output is linear in nodes plus edges, while a
// tree-shaped taxonomy renders as a plain indented tree. The output is
// deterministic.
func (t *Taxonomy) Render() string {
	var b strings.Builder
	expanded := make([]bool, len(t.nodes)) // by ID
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Label())
		if expanded[n.id] {
			b.WriteString(renderRepeat + "\n")
			return
		}
		b.WriteByte('\n')
		expanded[n.id] = true
		for _, k := range n.children {
			if k == t.bottom && len(k.Concepts) == 1 {
				continue // hide an empty ⊥
			}
			walk(k, depth+1)
		}
	}
	walk(t.top, 0)
	return b.String()
}

// Equal reports whether two taxonomies have identical equivalence classes
// and identical direct edges (compared by concept names).
func (t *Taxonomy) Equal(o *Taxonomy) bool {
	return t.Fingerprint() == o.Fingerprint()
}

// Fingerprint returns a canonical string of all classes and direct edges,
// usable for equality and test assertions.
func (t *Taxonomy) Fingerprint() string {
	var lines []string
	for _, n := range t.nodes {
		names := make([]string, len(n.Concepts))
		for i, c := range n.Concepts {
			names[i] = conceptName(c)
		}
		sort.Strings(names)
		class := strings.Join(names, "=")
		var ps []string
		for _, p := range n.parents {
			ps = append(ps, conceptName(p.Canonical()))
		}
		sort.Strings(ps)
		lines = append(lines, class+" < "+strings.Join(ps, ","))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
