package taxonomy

import (
	"strings"
	"testing"

	"parowl/internal/dl"
)

// diamond builds ⊤ → A → {B, C} → D.
func diamond(t *testing.T) (*Taxonomy, *dl.Factory) {
	t.Helper()
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C", "D")
	return build(t, f, cs, nil, [2]int{0, 1}, [2]int{0, 2}, [2]int{1, 3}, [2]int{2, 3}), f
}

func TestDepth(t *testing.T) {
	tax, f := diamond(t)
	cases := map[string]int{"A": 1, "B": 2, "C": 2, "D": 3}
	for name, want := range cases {
		if got := tax.Depth(f.Name(name)); got != want {
			t.Errorf("Depth(%s) = %d, want %d", name, got, want)
		}
	}
	if tax.Depth(f.Top()) != 0 {
		t.Error("Depth(⊤) != 0")
	}
	if tax.Depth(f.Name("Missing")) != -1 {
		t.Error("Depth(missing) != -1")
	}
}

func TestLCA(t *testing.T) {
	tax, f := diamond(t)
	// LCA(B, C) = A.
	lca := tax.LCA(f.Name("B"), f.Name("C"))
	if len(lca) != 1 || lca[0] != tax.NodeOf(f.Name("A")) {
		t.Errorf("LCA(B,C) = %v", labels(lca))
	}
	// LCA(B, D): D ⊑ B, so reflexively B.
	lca = tax.LCA(f.Name("B"), f.Name("D"))
	if len(lca) != 1 || lca[0] != tax.NodeOf(f.Name("B")) {
		t.Errorf("LCA(B,D) = %v", labels(lca))
	}
	// LCA of a concept with itself is itself.
	lca = tax.LCA(f.Name("D"), f.Name("D"))
	if len(lca) != 1 || lca[0] != tax.NodeOf(f.Name("D")) {
		t.Errorf("LCA(D,D) = %v", labels(lca))
	}
	if tax.LCA(f.Name("B"), f.Name("Missing")) != nil {
		t.Error("LCA with missing concept not nil")
	}
}

func TestLCAMultiple(t *testing.T) {
	// X, Y both below {P, Q} (P, Q incomparable): two lowest common
	// ancestors.
	f := dl.NewFactory()
	cs := names(f, "P", "Q", "X", "Y")
	tax := build(t, f, cs, nil, [2]int{0, 2}, [2]int{1, 2}, [2]int{0, 3}, [2]int{1, 3})
	lca := tax.LCA(cs[2], cs[3])
	if len(lca) != 2 {
		t.Errorf("LCA(X,Y) = %v, want P and Q", labels(lca))
	}
}

func labels(ns []*Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Label()
	}
	return out
}

func TestSummarize(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C", "U")
	tax := build(t, f, cs, []int{0, 1, 1, -1}, [2]int{0, 1})
	s := tax.Summarize()
	if s.Concepts != 4 {
		t.Errorf("Concepts = %d, want 4", s.Concepts)
	}
	if s.Unsatisfiable != 1 {
		t.Errorf("Unsatisfiable = %d, want 1", s.Unsatisfiable)
	}
	if s.Equivalences != 2 { // B and C share a node
		t.Errorf("Equivalences = %d, want 2", s.Equivalences)
	}
	if s.MaxDepth != 2 { // ⊤ → A → B≡C
		t.Errorf("MaxDepth = %d, want 2", s.MaxDepth)
	}
	if s.RootClasses != 1 {
		t.Errorf("RootClasses = %d, want 1", s.RootClasses)
	}
	if !strings.Contains(s.String(), "classes=") {
		t.Error("Summary.String malformed")
	}
}

func TestDOT(t *testing.T) {
	tax, _ := diamond(t)
	dot := tax.DOT()
	if !strings.HasPrefix(dot, "digraph taxonomy {") {
		t.Error("DOT header missing")
	}
	if !strings.Contains(dot, `label="A"`) || !strings.Contains(dot, "->") {
		t.Errorf("DOT content suspicious:\n%s", dot)
	}
	// ⊥ is empty here and must be hidden.
	if strings.Contains(dot, "⊥") {
		t.Error("empty ⊥ rendered")
	}
	// Deterministic output.
	if tax.DOT() != dot {
		t.Error("DOT not deterministic")
	}
}

func TestDOTWithUnsat(t *testing.T) {
	f := dl.NewFactory()
	tax := build(t, f, names(f, "A", "U"), []int{0, -1})
	if !strings.Contains(tax.DOT(), "U") {
		t.Error("unsatisfiable concept not rendered in ⊥ node")
	}
}
