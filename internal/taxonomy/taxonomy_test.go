package taxonomy

import (
	"fmt"
	"math/rand"
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

func TestBuilderSimpleTree(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C", "D")
	a, b, c, d := cs[0], cs[1], cs[2], cs[3]
	bld := NewBuilder(f)
	bld.AddEdge(a, b)
	bld.AddEdge(a, c)
	bld.AddEdge(c, d)
	tax, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
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
	a, b, c := cs[0], cs[1], cs[2]
	bld := NewBuilder(f)
	bld.MarkEquivalent(a, b)
	bld.AddEdge(a, c)
	tax, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
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
	bld := NewBuilder(f)
	bld.AddConcept(a)
	bld.MarkUnsatisfiable(u)
	tax, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
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
	bld := NewBuilder(f)
	bld.MarkEquivalent(a, f.Top())
	bld.AddEdge(a, b)
	tax, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
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
	a, b := cs[0], cs[1]
	bld := NewBuilder(f)
	bld.AddEdge(a, b)
	bld.AddEdge(b, a)
	if _, err := bld.Build(); err == nil {
		t.Fatal("cyclic edges accepted")
	}
}

func TestInconsistentTopBottomRejected(t *testing.T) {
	f := dl.NewFactory()
	bld := NewBuilder(f)
	bld.MarkEquivalent(f.Top(), f.Bottom())
	if _, err := bld.Build(); err == nil {
		t.Fatal("⊤ ≡ ⊥ accepted")
	}
}

func TestRenderDeterministic(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C")
	bld := NewBuilder(f)
	bld.AddEdge(cs[0], cs[1])
	bld.AddEdge(cs[0], cs[2])
	tax, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
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
	bld := NewBuilder(f)
	a := func(i int) *dl.Concept { return f.Name(fmt.Sprintf("A%02d", i)) }
	for i := 0; i < k; i++ {
		b, c := f.Name(fmt.Sprintf("B%02d", i)), f.Name(fmt.Sprintf("C%02d", i))
		bld.AddEdge(a(i), b)
		bld.AddEdge(a(i), c)
		bld.AddEdge(b, a(i+1))
		bld.AddEdge(c, a(i+1))
	}
	tax, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
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

// TestQuickFromSubsumersInvariants checks on random DAG closures that
// FromSubsumers produces a taxonomy whose reachability matches the input
// subsumer sets exactly (soundness + completeness of the reduction) and
// whose edges contain no transitive shortcuts.
func TestQuickFromSubsumersInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := dl.NewFactory()
		n := 2 + rng.Intn(8)
		cs := make([]*dl.Concept, n)
		for i := range cs {
			cs[i] = f.Name(string(rune('A' + i)))
		}
		// Random DAG: i can point only to j < i; closure by DFS.
		adj := make([][]int, n)
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if rng.Intn(3) == 0 {
					adj[i] = append(adj[i], j)
				}
			}
		}
		closure := make([]map[int]bool, n)
		var close func(i int) map[int]bool
		close = func(i int) map[int]bool {
			if closure[i] != nil {
				return closure[i]
			}
			m := map[int]bool{i: true}
			closure[i] = m
			for _, j := range adj[i] {
				for k := range close(j) {
					m[k] = true
				}
			}
			return m
		}
		subs := map[*dl.Concept]map[*dl.Concept]bool{}
		for i := range cs {
			m := map[*dl.Concept]bool{}
			for j := range close(i) {
				m[cs[j]] = true
			}
			subs[cs[i]] = m
		}
		tax, err := FromSubsumers(f, subs, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i := range cs {
			for j := range cs {
				if i == j {
					continue
				}
				want := subs[cs[i]][cs[j]]
				got := tax.IsAncestor(cs[j], cs[i]) || tax.NodeOf(cs[i]) == tax.NodeOf(cs[j])
				if got != want {
					t.Logf("seed %d: %v ⊑ %v: got %v want %v", seed, cs[i], cs[j], got, want)
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
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintEquality(t *testing.T) {
	f := dl.NewFactory()
	build := func() *Taxonomy {
		cs := names(f, "A", "B", "C")
		bld := NewBuilder(f)
		bld.AddEdge(cs[0], cs[1])
		bld.AddEdge(cs[1], cs[2])
		tax, err := bld.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tax
	}
	t1, t2 := build(), build()
	if !t1.Equal(t2) {
		t.Error("identical taxonomies not Equal")
	}
}
