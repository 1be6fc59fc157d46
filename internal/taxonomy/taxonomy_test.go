package taxonomy

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"parowl/internal/dl"
)

func names(f *dl.Factory, ss ...string) []*dl.Concept {
	out := make([]*dl.Concept, len(ss))
	for i, s := range ss {
		out[i] = f.Name(s)
	}
	return out
}

// build calls Build over cs followed by ⊤, whose index is len(cs), and
// fails the test on an error. class gives each of cs its class as Build
// reads it (nil: every concept its own class), and each edge is a parent,
// child pair of representatives' indices.
func build(t testing.TB, f *dl.Factory, cs []*dl.Concept, class []int, edges ...[2]int) *Taxonomy {
	t.Helper()
	if class == nil {
		class = make([]int, len(cs))
		for i := range class {
			class[i] = i
		}
	}
	children := make([][]int, len(cs)+1)
	for _, e := range edges {
		children[e[0]] = append(children[e[0]], e[1])
	}
	tax, err := Build(f, append(slices.Clip(cs), f.Top()), append(slices.Clip(class), len(cs)), children)
	if err != nil {
		t.Fatal(err)
	}
	return tax
}

func TestBuilderSimpleTree(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C", "D")
	a, b, d := cs[0], cs[1], cs[3]
	tax := build(t, f, cs, nil, [2]int{0, 1}, [2]int{0, 2}, [2]int{2, 3})
	if tax.NodeOf(a).Parents()[0] != tax.Top() {
		t.Error("A not under ⊤")
	}
	if !tax.IsAncestor(a, d) {
		t.Error("A not ancestor of D")
	}
	if tax.IsAncestor(b, d) {
		t.Error("B wrongly ancestor of D")
	}
	if got := len(tax.NodeOf(a).Children()); got != 2 {
		t.Errorf("A has %d children, want 2", got)
	}
	// D is a leaf: its only child is ⊥.
	if kids := tax.NodeOf(d).Children(); len(kids) != 1 || kids[0] != tax.Bottom() {
		t.Errorf("leaf D children = %v", kids)
	}
}

func TestBuilderEquivalence(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C")
	a, b := cs[0], cs[1]
	tax := build(t, f, cs, []int{0, 0, 2}, [2]int{0, 2})
	if tax.NodeOf(a) != tax.NodeOf(b) {
		t.Error("A and B in different nodes")
	}
	if got := tax.NodeOf(a).Label(); got != "A ≡ B" {
		t.Errorf("Label = %q", got)
	}
	if eq := tax.Equivalents(b); len(eq) != 2 {
		t.Errorf("Equivalents(B) = %v", eq)
	}
}

func TestBuilderUnsatisfiable(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "U")
	a, u := cs[0], cs[1]
	tax := build(t, f, cs, []int{0, -1})
	if tax.NodeOf(u) != tax.Bottom() {
		t.Error("U not in ⊥ node")
	}
	if !tax.IsAncestor(a, u) {
		t.Error("satisfiable A should be an ancestor of the ⊥ class")
	}
}

func TestBuilderEquivalentToTop(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B")
	a, b := cs[0], cs[1]
	top := len(cs)
	tax := build(t, f, cs, []int{top, 1}, [2]int{top, 1})
	if tax.NodeOf(a) != tax.Top() {
		t.Error("A not merged with ⊤")
	}
	if tax.NodeOf(b).Parents()[0] != tax.Top() {
		t.Error("B not under ⊤")
	}
}

func TestCycleRejected(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B")
	if _, err := Build(f, append(cs, f.Top()), []int{0, 1, 2}, [][]int{{1}, {0}}); err == nil {
		t.Fatal("cyclic edges accepted")
	}
}

func TestInconsistentTopBottomRejected(t *testing.T) {
	f := dl.NewFactory()
	if _, err := Build(f, []*dl.Concept{f.Top()}, []int{-1}, nil); err == nil {
		t.Fatal("⊤ ≡ ⊥ accepted")
	}
}

func TestRenderDeterministic(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C")
	tax := build(t, f, cs, nil, [2]int{0, 1}, [2]int{0, 2})
	r1 := tax.Render()
	if !strings.Contains(r1, "⊤") || !strings.Contains(r1, "  B") {
		t.Errorf("Render = %q", r1)
	}
	if r2 := tax.Render(); r1 != r2 {
		t.Error("Render not deterministic")
	}
}

// TestRenderStackedDiamonds: k diamonds stacked on one another give 2^k
// paths from ⊤ to the last node. Render expands each node once, so it
// prints one line per direct edge plus the root, and marks exactly the
// k second arrivals at a diamond's bottom.
func TestRenderStackedDiamonds(t *testing.T) {
	const k = 16
	f := dl.NewFactory()
	var cs []*dl.Concept
	var edges [][2]int
	for i := 0; i < k; i++ {
		a := len(cs) // then B, C, and the next A
		cs = append(cs, names(f, fmt.Sprintf("A%02d", i), fmt.Sprintf("B%02d", i), fmt.Sprintf("C%02d", i))...)
		edges = append(edges, [2]int{a, a + 1}, [2]int{a, a + 2}, [2]int{a + 1, a + 3}, [2]int{a + 2, a + 3})
	}
	tax := build(t, f, append(cs, f.Name(fmt.Sprintf("A%02d", k))), nil, edges...)
	out := tax.Render()
	if lines, want := strings.Count(out, "\n"), 2+4*k; lines != want {
		t.Errorf("Render printed %d lines, want %d (⊤, A00, then 4 per diamond)", lines, want)
	}
	if got := strings.Count(out, renderRepeat+"\n"); got != k {
		t.Errorf("%d repeat marks, want %d", got, k)
	}
	head := "⊤\n  A00\n    B00\n      A01\n        B01\n"
	if !strings.HasPrefix(out, head) || !strings.Contains(out, "\n    C00\n      A01"+renderRepeat+"\n") {
		t.Errorf("Render =\n%s", out[:min(len(out), 400)])
	}
}

func TestFromSubsumersDiamond(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C", "D")
	a, b, c, d := cs[0], cs[1], cs[2], cs[3]
	// D ⊑ B ⊑ A, D ⊑ C ⊑ A (diamond); edges must be the reduction.
	subs := map[*dl.Concept]map[*dl.Concept]bool{
		a: {a: true},
		b: {b: true, a: true},
		c: {c: true, a: true},
		d: {d: true, b: true, c: true, a: true},
	}
	tax, err := FromSubsumers(f, subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	dn := tax.NodeOf(d)
	if len(dn.Parents()) != 2 {
		t.Fatalf("D parents = %d, want 2 (B and C, not A)", len(dn.Parents()))
	}
	for _, p := range dn.Parents() {
		if p == tax.NodeOf(a) {
			t.Error("transitive edge A→D not reduced")
		}
	}
}

func TestFromSubsumersEquivalence(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C")
	a, b, c := cs[0], cs[1], cs[2]
	subs := map[*dl.Concept]map[*dl.Concept]bool{
		a: {a: true, b: true},
		b: {b: true, a: true},
		c: {c: true, a: true, b: true},
	}
	tax, err := FromSubsumers(f, subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tax.NodeOf(a) != tax.NodeOf(b) {
		t.Error("mutual subsumption did not merge")
	}
	if got := len(tax.NodeOf(c).Parents()); got != 1 {
		t.Errorf("C parents = %d, want 1", got)
	}
}

// TestQuickFromSubsumersInvariants checks on random closures over a class
// DAG, with equivalence classes and unsatisfiable concepts, that
// FromSubsumers puts equivalent concepts in one node and unsatisfiable
// ones in ⊥, that the taxonomy's reachability matches the input subsumer
// sets exactly (soundness + completeness of the reduction), that its edges
// contain no transitive shortcuts, and that Build numbered the nodes:
// Nodes()[i] has ID i, ⊤ first, ⊥ last and label order between, and
// every parent and child list ascends by ID.
func TestQuickFromSubsumersInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := dl.NewFactory()
		n := 2 + rng.Intn(8)
		k := 1 + rng.Intn(n) // classes, some of them empty
		cs := make([]*dl.Concept, n)
		cls := make([]int, n) // concept → class, -1 for unsatisfiable
		for i := range cs {
			cs[i] = f.Name(string(rune('A' + i)))
			cls[i] = rng.Intn(k)
			if rng.Intn(6) == 0 {
				cls[i] = -1
			}
		}
		// Random class DAG: i can point only to j < i; closure by DFS.
		adj := make([][]int, k)
		for i := 1; i < k; i++ {
			for j := 0; j < i; j++ {
				if rng.Intn(3) == 0 {
					adj[i] = append(adj[i], j)
				}
			}
		}
		closure := make([]map[int]bool, k)
		var close func(i int) map[int]bool
		close = func(i int) map[int]bool {
			if closure[i] != nil {
				return closure[i]
			}
			m := map[int]bool{i: true}
			closure[i] = m
			for _, j := range adj[i] {
				for x := range close(j) {
					m[x] = true
				}
			}
			return m
		}
		// An unsatisfiable concept is subsumed by every concept.
		subs := map[*dl.Concept]map[*dl.Concept]bool{}
		unsat := map[*dl.Concept]bool{}
		for i, c := range cs {
			m := map[*dl.Concept]bool{}
			for j, d := range cs {
				if cls[i] < 0 || cls[j] >= 0 && close(cls[i])[cls[j]] {
					m[d] = true
				}
			}
			subs[c] = m
			unsat[c] = cls[i] < 0
		}
		tax, err := FromSubsumers(f, subs, unsat)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i, c := range cs {
			if got := tax.NodeOf(c) == tax.Bottom(); got != unsat[c] {
				t.Logf("seed %d: %v in ⊥ = %v, unsatisfiable = %v", seed, c, got, unsat[c])
				return false
			}
			for j, d := range cs {
				if i == j || unsat[c] || unsat[d] {
					continue
				}
				same := tax.NodeOf(c) == tax.NodeOf(d)
				if same != (cls[i] == cls[j]) {
					t.Logf("seed %d: %v and %v share a node = %v, equivalent = %v", seed, c, d, same, cls[i] == cls[j])
					return false
				}
				want := subs[c][d]
				if got := tax.IsAncestor(d, c) || same; got != want {
					t.Logf("seed %d: %v ⊑ %v: got %v want %v", seed, c, d, got, want)
					return false
				}
			}
		}
		// No direct edge may be implied by another path.
		for _, nd := range tax.Nodes() {
			for _, ch := range nd.Children() {
				if ch == tax.Bottom() {
					continue
				}
				for _, mid := range nd.Children() {
					if mid == ch || mid == tax.Bottom() {
						continue
					}
					if tax.IsAncestor(mid.Canonical(), ch.Canonical()) {
						t.Logf("seed %d: transitive edge %s→%s via %s", seed, nd.Label(), ch.Label(), mid.Label())
						return false
					}
				}
			}
		}
		nodes := tax.Nodes()
		if nodes[0] != tax.Top() || nodes[len(nodes)-1] != tax.Bottom() {
			t.Logf("seed %d: Nodes() does not run from ⊤ to ⊥", seed)
			return false
		}
		for i, nd := range nodes {
			if nd.id != i {
				t.Logf("seed %d: Nodes()[%d] %s has ID %d", seed, i, nd.Label(), nd.id)
				return false
			}
			if 0 < i && i < len(nodes)-2 && nd.Label() >= nodes[i+1].Label() {
				t.Logf("seed %d: %s numbered before %s", seed, nd.Label(), nodes[i+1].Label())
				return false
			}
			for _, list := range [][]*Node{nd.Parents(), nd.Children()} {
				for x := 1; x < len(list); x++ {
					if list[x-1].id >= list[x].id {
						t.Logf("seed %d: %s lists %s before %s", seed, nd.Label(), list[x-1].Label(), list[x].Label())
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintEquality(t *testing.T) {
	f := dl.NewFactory()
	build := func() *Taxonomy {
		return build(t, f, names(f, "A", "B", "C"), nil, [2]int{0, 1}, [2]int{1, 2})
	}
	t1, t2 := build(), build()
	if !t1.Equal(t2) {
		t.Error("identical taxonomies not Equal")
	}
}
