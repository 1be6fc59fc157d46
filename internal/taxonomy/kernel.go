package taxonomy

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"

	"parowl/internal/bitset"
	"parowl/internal/dl"
)

// Kernel is the compiled query form of a Taxonomy: dense node IDs plus
// the ancestor transitive closure as one bit row per node, in the style
// of the CNS OWL engine's uint64 closure tables. Subsumption becomes one
// word-indexed bit test and the set-valued queries become word-parallel
// row operations (AND + popcount) or a walk over ID-indexed bits,
// replacing the pointer-chasing, map-allocating walks in query.go.
//
// Node IDs are the IDs Build stores on the nodes, their index in
// Taxonomy.Nodes() (⊤ = 0, ⊥ = n-1, label order between). The rows are
// plain bitset.Set values cut from one backing array (bitset.Rows):
// n·⌈n/64⌉ words, plus one row header per node. No descendant closure
// is kept: it is the ancestor closure transposed, and the queries that
// would read it walk child edges instead.
//
// A Kernel has no on-disk form: it is a pure function of its taxonomy,
// so a restored taxonomy compiles its own. It is immutable after Compile
// and safe for concurrent readers.
type Kernel struct {
	tax   *Taxonomy    // the taxonomy it was compiled from
	w     int          // words per closure row, ⌈n/64⌉
	words []uint64     // the closure, row x at words [x·w, (x+1)·w)
	anc   []bitset.Set // the same rows as sets: anc[x] bit y, y is a strict ancestor of x
	depth []int32      // longest ⊤-path per node ID
}

// isAnc reports whether node y is a strict ancestor of node x, reading
// the word straight from the closure: a test through anc[x] first loads
// the row's header, one more dependent load per query, which made
// subsumes about a fifth slower on actpathway (2-CPU host).
func (k *Kernel) isAnc(x, y int) bool {
	return k.words[x*k.w+y/64]&(1<<(uint(y)%64)) != 0
}

// Compile builds the query kernel for t using one worker per available
// CPU. See CompileWorkers.
func Compile(t *Taxonomy) *Kernel { return CompileWorkers(t, runtime.GOMAXPROCS(0)) }

// CompileWorkers builds the query kernel for t in one top-down sweep:
// nodes are grouped into antichain levels by longest-path depth from ⊤
// (which is also their depth), every parent of a level-d node sits at a
// level < d, so its row is complete when the level is processed, and a
// node's row is the OR of its parents' rows plus one bit per parent. The
// nodes of one level are never related and write disjoint rows, so a
// level is compiled in parallel across workers without atomics; the
// join after each level orders its writes before the next level's
// reads.
func CompileWorkers(t *Taxonomy, workers int) *Kernel {
	n := len(t.nodes)
	w := (n + 63) / 64
	k := &Kernel{tax: t, w: w, words: make([]uint64, n*w), depth: make([]int32, n)}
	k.anc = bitset.Rows(k.words, n, n)
	if workers < 1 {
		workers = 1
	}
	for d, level := range levels(t.nodes) {
		for _, x := range level {
			k.depth[x] = int32(d)
		}
		forEachParallel(level, workers, func(x int) {
			row := &k.anc[x]
			for _, p := range t.nodes[x].parents {
				row.Union(&k.anc[p.id])
				row.Set(p.id)
			}
		})
	}
	return k
}

// levels groups node IDs into antichain levels by longest-path distance
// from ⊤, the one node without parents (Kahn's algorithm over the
// parent edges). A node is released only after every parent edge is
// consumed, so its level — the max over its parents' levels plus one —
// is final when assigned. Each returned slice holds the nodes of exactly
// one level, so within a slice no two nodes are related and all their
// parents' rows are complete. A node's level is its depth.
func levels(nodes []*Node) [][]int {
	remaining := make([]int, len(nodes))
	level := make([]int, len(nodes))
	var frontier []int
	for i, nd := range nodes {
		remaining[i] = len(nd.parents)
		if remaining[i] == 0 {
			frontier = append(frontier, i)
		}
	}
	processed, maxLevel := 0, 0
	for len(frontier) > 0 {
		var nf []int
		for _, x := range frontier {
			processed++
			maxLevel = max(maxLevel, level[x])
			for _, y := range nodes[x].children {
				level[y.id] = max(level[y.id], level[x]+1)
				remaining[y.id]--
				if remaining[y.id] == 0 {
					nf = append(nf, y.id)
				}
			}
		}
		frontier = nf
	}
	if processed != len(nodes) {
		panic(fmt.Sprintf("taxonomy: level sweep reached %d of %d nodes (cycle?)", processed, len(nodes)))
	}
	byLevel := make([][]int, maxLevel+1)
	for i, d := range level {
		byLevel[d] = append(byLevel[d], i)
	}
	return byLevel
}

// forEachParallel runs fn over the IDs in level, fanning out across up to
// `workers` goroutines when the level is large enough to pay for it. The
// WaitGroup join gives the next level a happens-before edge on every row
// written here.
func forEachParallel(level []int, workers int, fn func(x int)) {
	const minPerWorker = 16
	if workers == 1 || len(level) < 2*minPerWorker {
		for _, x := range level {
			fn(x)
		}
		return
	}
	if max := (len(level) + minPerWorker - 1) / minPerWorker; workers > max {
		workers = max
	}
	var wg sync.WaitGroup
	chunk := (len(level) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(level) {
			break
		}
		hi := lo + chunk
		if hi > len(level) {
			hi = len(level)
		}
		wg.Add(1)
		go func(ids []int) {
			defer wg.Done()
			for _, x := range ids {
				fn(x)
			}
		}(level[lo:hi])
	}
	wg.Wait()
}

// NumClasses returns the number of taxonomy nodes the kernel covers.
func (k *Kernel) NumClasses() int { return len(k.anc) }

// MemoryFootprint returns the bytes the kernel holds, as Compile
// allocates them: the closure rows' words and headers and the depth
// table.
func (k *Kernel) MemoryFootprint() int {
	n := len(k.anc)
	return 8*len(k.words) + n*int(unsafe.Sizeof(bitset.Set{})) + 4*n
}

func (k *Kernel) idOf(c *dl.Concept) (int, bool) {
	nd := k.tax.byConcept[c]
	if nd == nil {
		return 0, false
	}
	return nd.id, true
}

// IsAncestor reports whether anc is a strict ancestor of c: one bit test.
func (k *Kernel) IsAncestor(anc, c *dl.Concept) bool {
	ia, ok1 := k.idOf(anc)
	ic, ok2 := k.idOf(c)
	if !ok1 || !ok2 {
		return false
	}
	return k.isAnc(ic, ia)
}

// Subsumes reports c ⊑ sup: equivalence (same node) or strict ancestry.
func (k *Kernel) Subsumes(sup, c *dl.Concept) bool {
	is, ok1 := k.idOf(sup)
	ic, ok2 := k.idOf(c)
	if !ok1 || !ok2 {
		return false
	}
	return is == ic || k.isAnc(ic, is)
}

// SubsumesBatch answers sub ⊑ sups[i] for every i against a single
// ancestor row: sub's dense ID is resolved once and each candidate
// subsumer costs one bit test into the same row, so a batched multi-pair
// subsumption request does one row sweep instead of len(sups)
// independent double lookups. A sub (or sup) outside the taxonomy
// answers false, matching Subsumes.
func (k *Kernel) SubsumesBatch(sub *dl.Concept, sups []*dl.Concept) []bool {
	out := make([]bool, len(sups))
	ic, ok := k.idOf(sub)
	if !ok {
		return out
	}
	for i, sup := range sups {
		is, ok := k.idOf(sup)
		out[i] = ok && (is == ic || k.isAnc(ic, is))
	}
	return out
}

// nodesOf returns the nodes whose IDs row holds, in ID order.
func (k *Kernel) nodesOf(row *bitset.Set) []*Node {
	out := make([]*Node, 0, row.Count())
	row.ForEach(func(id int) bool {
		out = append(out, k.tax.nodes[id])
		return true
	})
	return out
}

// Ancestors returns all strict ancestor nodes of c in ID order.
func (k *Kernel) Ancestors(c *dl.Concept) []*Node {
	ic, ok := k.idOf(c)
	if !ok {
		return nil
	}
	return k.nodesOf(&k.anc[ic])
}

// Descendants returns all strict descendant nodes of c in ID order: a
// walk down the child edges that marks each node it reaches in an
// ID-indexed set, so a node below several parents is expanded once.
func (k *Kernel) Descendants(c *dl.Concept) []*Node {
	ic, ok := k.idOf(c)
	if !ok {
		return nil
	}
	seen := bitset.New(len(k.anc))
	stack := []*Node{k.tax.nodes[ic]}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ch := range nd.children {
			if !seen.Test(ch.id) {
				seen.Set(ch.id)
				stack = append(stack, ch)
			}
		}
	}
	return k.nodesOf(seen)
}

// Equivalents returns the concepts equivalent to c (including c).
func (k *Kernel) Equivalents(c *dl.Concept) []*dl.Concept {
	ic, ok := k.idOf(c)
	if !ok {
		return nil
	}
	return k.tax.nodes[ic].Concepts
}

// Depth returns the longest ⊤-path length to c's node, or -1 if c is not
// in the taxonomy.
func (k *Kernel) Depth(c *dl.Concept) int {
	ic, ok := k.idOf(c)
	if !ok {
		return -1
	}
	return int(k.depth[ic])
}

// LCA returns the lowest common ancestors of a and b (reflexive), sorted
// by label. The common-ancestor set is two ancestor rows intersected
// word-parallel. It is upward closed, so a candidate with a shared
// strict descendant also has a shared direct child (the first step of a
// path down to it): a candidate is dropped when one of its children is
// shared.
func (k *Kernel) LCA(a, b *dl.Concept) []*Node {
	ia, ok1 := k.idOf(a)
	ib, ok2 := k.idOf(b)
	if !ok1 || !ok2 {
		return nil
	}
	shared := bitset.New(len(k.anc))
	shared.Union(&k.anc[ia])
	shared.Set(ia)
	self := shared.Test(ib) // b itself is shared: b ⊒ a
	shared.Intersect(&k.anc[ib])
	if self {
		shared.Set(ib)
	}
	var lowest []*Node
	shared.ForEach(func(id int) bool {
		for _, ch := range k.tax.nodes[id].children {
			if shared.Test(ch.id) {
				return true
			}
		}
		lowest = append(lowest, k.tax.nodes[id])
		return true
	})
	sortNodes(lowest)
	return lowest
}
