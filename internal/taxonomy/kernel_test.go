package taxonomy

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"parowl/internal/dl"
)

// randomTaxonomy builds a random DAG taxonomy over n named concepts:
// edges only from lower to higher index among the first m concepts
// (guaranteeing acyclicity); the edge-free tail block supplies
// equivalences and unsatisfiable concepts, so merging a tail concept into
// any class can never create a cycle.
func randomTaxonomy(rng *rand.Rand, n int) (*Taxonomy, *dl.Factory, []*dl.Concept) {
	f := dl.NewFactory()
	m := n - n/6
	cs := make([]*dl.Concept, n)
	for i := range cs {
		cs[i] = f.Name(fmt.Sprintf("C%03d", i))
	}
	class := make([]int, n+1) // ⊤ last
	for i := range class {
		class[i] = i
	}
	children := make([][]int, m)
	for j := 1; j < m; j++ {
		for i := 0; i < j; i++ {
			if rng.Float64() < 2.0/float64(j) {
				children[i] = append(children[i], j)
			}
		}
	}
	for i := m; i < n; i++ {
		if rng.Intn(3) == 0 {
			class[i] = -1
		} else {
			class[i] = rng.Intn(m)
		}
	}
	tax, err := Build(f, append(cs, f.Top()), class, children)
	if err != nil {
		panic(fmt.Sprintf("random taxonomy build failed: %v", err))
	}
	return tax, f, cs
}

func labelSet(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Label()
	}
	sort.Strings(out)
	return out
}

// queryAnswers records every query result over a concept universe so the
// map-based and kernel paths can be compared answer-for-answer.
type queryAnswers struct {
	isAnc, subsumes   map[[2]int]bool
	ancs, descs, lcas map[string][]string
	equivs            map[int][]string
	depths            map[int]int
}

func collectAnswers(tax *Taxonomy, cs []*dl.Concept, pairs [][2]int) *queryAnswers {
	a := &queryAnswers{
		isAnc:    map[[2]int]bool{},
		subsumes: map[[2]int]bool{},
		ancs:     map[string][]string{},
		descs:    map[string][]string{},
		lcas:     map[string][]string{},
		equivs:   map[int][]string{},
		depths:   map[int]int{},
	}
	k := tax.Kernel()
	for _, p := range pairs {
		x, y := cs[p[0]], cs[p[1]]
		a.isAnc[p] = tax.IsAncestor(x, y)
		if k != nil {
			a.subsumes[p] = k.Subsumes(x, y)
		} else {
			a.subsumes[p] = tax.NodeOf(x) == tax.NodeOf(y) || tax.IsAncestor(x, y)
		}
		a.lcas[fmt.Sprint(p)] = labelSet(tax.LCA(x, y))
	}
	for i, c := range cs {
		a.ancs[c.Name] = labelSet(tax.Ancestors(c))
		a.descs[c.Name] = labelSet(tax.Descendants(c))
		a.depths[i] = tax.Depth(c)
		eq := append([]string(nil), conceptNames(tax.Equivalents(c))...)
		sort.Strings(eq)
		a.equivs[i] = eq
	}
	return a
}

func conceptNames(cs []*dl.Concept) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = conceptName(c)
	}
	return out
}

func diffAnswers(t *testing.T, trial int, want, got *queryAnswers) {
	t.Helper()
	for p, v := range want.isAnc {
		if got.isAnc[p] != v {
			t.Fatalf("trial %d: IsAncestor%v = %v, want %v", trial, p, got.isAnc[p], v)
		}
	}
	for p, v := range want.subsumes {
		if got.subsumes[p] != v {
			t.Fatalf("trial %d: Subsumes%v = %v, want %v", trial, p, got.subsumes[p], v)
		}
	}
	for key, v := range want.lcas {
		if fmt.Sprint(got.lcas[key]) != fmt.Sprint(v) {
			t.Fatalf("trial %d: LCA %s = %v, want %v", trial, key, got.lcas[key], v)
		}
	}
	for c, v := range want.ancs {
		if fmt.Sprint(got.ancs[c]) != fmt.Sprint(v) {
			t.Fatalf("trial %d: Ancestors(%s) = %v, want %v", trial, c, got.ancs[c], v)
		}
	}
	for c, v := range want.descs {
		if fmt.Sprint(got.descs[c]) != fmt.Sprint(v) {
			t.Fatalf("trial %d: Descendants(%s) = %v, want %v", trial, c, got.descs[c], v)
		}
	}
	for i, v := range want.depths {
		if got.depths[i] != v {
			t.Fatalf("trial %d: Depth(#%d) = %d, want %d", trial, i, got.depths[i], v)
		}
	}
	for i, v := range want.equivs {
		if fmt.Sprint(got.equivs[i]) != fmt.Sprint(v) {
			t.Fatalf("trial %d: Equivalents(#%d) = %v, want %v", trial, i, got.equivs[i], v)
		}
	}
}

func randomPairs(rng *rand.Rand, n, count int) [][2]int {
	pairs := make([][2]int, count)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return pairs
}

// TestKernelEquivalenceRandom checks all six query operations agree
// between the map-based pointer-DAG path and the compiled kernel on
// random taxonomies. Half of them have 8–55 concepts, so every kernel row
// is one word; the other half have 65–200, so rows span two to four
// words and most end inside one. ⊤ is among the queried concepts, and
// the pairs include ⊤ on either side and a = b.
func TestKernelEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(48)
		if trial%2 == 1 {
			n = 65 + rng.Intn(136)
		}
		tax, f, named := randomTaxonomy(rng, n)
		cs := append(named[:n:n], f.Top())
		top := len(cs) - 1
		pairs := randomPairs(rng, len(cs), 40)
		for i := 0; i < 4; i++ {
			a, b := rng.Intn(len(cs)), rng.Intn(len(cs))
			pairs = append(pairs, [2]int{a, a}, [2]int{top, b}, [2]int{b, top})
		}
		want := collectAnswers(tax, cs, pairs) // kernel not yet compiled: map path
		k := tax.CompileKernel(1 + rng.Intn(4))
		if k == nil || tax.Kernel() != k {
			t.Fatal("CompileKernel did not attach")
		}
		got := collectAnswers(tax, cs, pairs) // now delegates to the kernel
		diffAnswers(t, trial, want, got)
	}
}

// TestKernelDepthMatchesSummarize checks the shared-pass depth table
// agrees with per-concept Depth and that Summarize's MaxDepth is the
// maximum over nodes (satellite: Summarize single-pass depths).
func TestKernelDepthMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tax, _, _ := randomTaxonomy(rng, 8+rng.Intn(48))
		depths := tax.allDepths()
		maxDepth := 0
		for i, n := range tax.nodes {
			if d := tax.Depth(n.Canonical()); d != depths[i] {
				t.Fatalf("trial %d: allDepths[%d] = %d, Depth = %d", trial, i, depths[i], d)
			}
			if n != tax.bottom && depths[i] > maxDepth {
				maxDepth = depths[i]
			}
		}
		if s := tax.Summarize(); s.MaxDepth != maxDepth {
			t.Fatalf("trial %d: Summarize MaxDepth = %d, want %d", trial, s.MaxDepth, maxDepth)
		}
	}
}

func BenchmarkKernelCompile(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	tax, _, _ := randomTaxonomy(rng, 8+rng.Intn(48))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompileWorkers(tax, 4)
	}
}
