package taxonomy

import (
	"fmt"
	"runtime"
	"sync"

	"parowl/internal/bitset"
	"parowl/internal/dl"
)

// Kernel is the compiled query form of a Taxonomy: dense node IDs plus
// ancestor/descendant transitive-closure bit matrices, in the style of
// the CNS OWL engine's uint64 closure tables. Subsumption becomes one
// word-indexed bit test and the set-valued queries become word-parallel
// row operations (OR/AND + popcount), replacing the pointer-chasing,
// map-allocating walks in query.go.
//
// Node IDs are the IDs Build stores on the nodes, their index in
// Taxonomy.Nodes() (⊤ = 0, ⊥ = n-1, label order between).
// The matrices are allocated with a word-aligned column count
// (bitset.AlignCols) so every row is a whole number of uint64 words; the
// padding columns are never set.
//
// A Kernel has no on-disk form: it is a pure function of its taxonomy,
// so a restored taxonomy compiles its own. It is immutable after Compile
// and safe for concurrent readers.
type Kernel struct {
	tax   *Taxonomy      // the taxonomy it was compiled from
	n     int            // node count (matrix rows)
	cols  int            // AlignCols(n) matrix columns
	anc   *bitset.Matrix // bit (x,y): y is a strict ancestor of x
	desc  *bitset.Matrix // bit (x,y): y is a strict descendant of x
	depth []int32        // longest ⊤-path per node ID
}

// Compile builds the query kernel for t using one worker per available
// CPU. See CompileWorkers.
func Compile(t *Taxonomy) *Kernel { return CompileWorkers(t, runtime.GOMAXPROCS(0)) }

// CompileWorkers builds the query kernel for t. The closure matrices are
// built in a single reverse-topological sweep each: nodes are grouped
// into antichain levels (equal longest-path depth), every node's row is
// the word-parallel OR of its parents' (resp. children's) completed rows
// plus one bit per direct edge, and the nodes within a level — which can
// never be related — are compiled in parallel across workers.
func CompileWorkers(t *Taxonomy, workers int) *Kernel {
	n := len(t.nodes)
	k := &Kernel{
		tax:   t,
		n:     n,
		cols:  bitset.AlignCols(n),
		depth: make([]int32, n),
	}
	k.anc = bitset.NewMatrix(n, k.cols)
	k.desc = bitset.NewMatrix(n, k.cols)
	if workers < 1 {
		workers = 1
	}

	// Downward sweep: levels by longest-path depth from ⊤. Every parent
	// of a level-d node sits at a level < d, so its ancestor row is
	// already complete when the level is processed, and nodes within one
	// level are an antichain (depth strictly increases along edges) so
	// they touch disjoint rows.
	ancLevels := levels(t.nodes, (*Node).Parents, (*Node).Children)
	for d, level := range ancLevels {
		for _, x := range level {
			k.depth[x] = int32(d)
		}
	}
	for _, level := range ancLevels {
		k.forEachParallel(level, workers, func(x int) {
			for _, p := range t.nodes[x].parents {
				k.anc.Set(x, p.id)
				k.anc.OrRow(x, p.id)
			}
		})
	}
	// Upward sweep: the mirror image, levels by height above the leaves.
	for _, level := range levels(t.nodes, (*Node).Children, (*Node).Parents) {
		k.forEachParallel(level, workers, func(x int) {
			for _, c := range t.nodes[x].children {
				k.desc.Set(x, c.id)
				k.desc.OrRow(x, c.id)
			}
		})
	}
	return k
}

// levels groups node IDs into antichain levels by longest-path distance
// from the nodes with no prev-edges (Kahn's algorithm; next is the
// reverse of prev). A node is released only after every prev-edge is
// consumed, so its level — the max over its prev nodes' levels plus one —
// is final when assigned. Each returned slice holds the nodes of exactly
// one level, so within a slice no two nodes are related and all their
// prev rows are complete. Over parents, a node's level is its depth.
func levels(nodes []*Node, prev, next func(*Node) []*Node) [][]int {
	remaining := make([]int, len(nodes))
	level := make([]int, len(nodes))
	var frontier []int
	for i, nd := range nodes {
		remaining[i] = len(prev(nd))
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
			for _, y := range next(nodes[x]) {
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
func (k *Kernel) forEachParallel(level []int, workers int, fn func(x int)) {
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
func (k *Kernel) NumClasses() int { return k.n }

// MemoryFootprint returns the approximate resident size of the closure
// matrices and depth table in bytes.
func (k *Kernel) MemoryFootprint() int {
	return 2*k.n*(k.cols/8) + 4*k.n
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
	return k.anc.Test(ic, ia)
}

// Subsumes reports c ⊑ sup: equivalence (same node) or strict ancestry.
func (k *Kernel) Subsumes(sup, c *dl.Concept) bool {
	is, ok1 := k.idOf(sup)
	ic, ok2 := k.idOf(c)
	if !ok1 || !ok2 {
		return false
	}
	return is == ic || k.anc.Test(ic, is)
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
		out[i] = ok && (is == ic || k.anc.Test(ic, is))
	}
	return out
}

func (k *Kernel) rowNodes(m *bitset.Matrix, r int) []*Node {
	out := make([]*Node, 0, m.RowCount(r))
	m.RowForEach(r, func(c int) bool {
		out = append(out, k.tax.nodes[c])
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
	return k.rowNodes(k.anc, ic)
}

// Descendants returns all strict descendant nodes of c in ID order.
func (k *Kernel) Descendants(c *dl.Concept) []*Node {
	ic, ok := k.idOf(c)
	if !ok {
		return nil
	}
	return k.rowNodes(k.desc, ic)
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
// by label. The common-ancestor set is two row snapshots intersected
// word-parallel; a candidate is pruned when its descendant row intersects
// the shared set.
func (k *Kernel) LCA(a, b *dl.Concept) []*Node {
	ia, ok1 := k.idOf(a)
	ib, ok2 := k.idOf(b)
	if !ok1 || !ok2 {
		return nil
	}
	shared := k.anc.RowSnapshot(ia)
	shared.Set(ia)
	sb := k.anc.RowSnapshot(ib)
	sb.Set(ib)
	shared.Intersect(sb)
	var lowest []*Node
	shared.ForEach(func(c int) bool {
		if !k.desc.RowIntersectsSet(c, shared) {
			lowest = append(lowest, k.tax.nodes[c])
		}
		return true
	})
	sortNodes(lowest)
	return lowest
}
