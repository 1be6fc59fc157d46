package module

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"parowl/internal/dl"
	"parowl/internal/ontogen"
	"parowl/internal/tableau"
)

// chain builds A0 ⊒ A1 ⊒ ... ⊒ A(n-1).
func chain(n int) *dl.TBox {
	tb := dl.NewTBox("chain")
	prev := tb.Declare("A0")
	for i := 1; i < n; i++ {
		c := tb.Declare(fmt.Sprintf("A%d", i))
		tb.SubClassOf(c, prev)
		prev = c
	}
	return tb
}

// TestChainModuleIsAncestorClosure: the ⊥-module for {A5} in a chain is
// exactly the ancestor axioms A5 ⊑ A4 ⊑ ... ⊑ A0; descendants are local.
func TestChainModuleIsAncestorClosure(t *testing.T) {
	tb := chain(10)
	m, err := Extract(tb, []string{"A5"})
	if err != nil {
		t.Fatal(err)
	}
	var logical int
	for _, ax := range m.Axioms() {
		if ax.Kind == dl.AxSubClassOf {
			logical++
		}
	}
	if logical != 5 { // A5⊑A4, ..., A1⊑A0
		t.Errorf("module has %d SubClassOf axioms, want 5:\n%v", logical, m.Axioms())
	}
	names := map[string]bool{}
	for _, c := range m.NamedConcepts() {
		names[c.Name] = true
	}
	if !names["A0"] || !names["A5"] || names["A6"] {
		t.Errorf("module concepts wrong: %v", names)
	}
}

func TestUnknownSeedRejected(t *testing.T) {
	if _, err := Extract(chain(3), []string{"Nope"}); err == nil {
		t.Fatal("unknown seed accepted")
	}
}

func TestModuleKeepsRoleAxioms(t *testing.T) {
	tb := dl.NewTBox("roles")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	s, r := f.Role("s"), f.Role("r")
	tb.SubObjectPropertyOf(s, r)
	tb.TransitiveObjectProperty(s)
	tb.SubClassOf(a, f.Some(s, b))
	m, err := Extract(tb, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	mf := m.Factory
	if !mf.Role("s").Transitive {
		t.Error("transitivity of s lost")
	}
	if !mf.Role("s").IsSubRoleOf(mf.Role("r")) {
		t.Error("role hierarchy lost")
	}
}

// randomTBox builds a random absorbable ALCHQ ontology.
func randomTBox(rng *rand.Rand, n int) *dl.TBox {
	tb := dl.NewTBox("rt")
	f := tb.Factory
	cs := make([]*dl.Concept, n)
	for i := range cs {
		cs[i] = tb.Declare(fmt.Sprintf("N%d", i))
	}
	roles := []*dl.Role{f.Role("r"), f.Role("s")}
	if rng.Intn(2) == 0 {
		tb.SubObjectPropertyOf(roles[0], roles[1])
	}
	var expr func(depth int) *dl.Concept
	expr = func(depth int) *dl.Concept {
		if depth <= 0 || rng.Intn(3) == 0 {
			return cs[rng.Intn(n)]
		}
		switch rng.Intn(6) {
		case 0:
			return f.Not(cs[rng.Intn(n)])
		case 1:
			return f.And(expr(depth-1), expr(depth-1))
		case 2:
			return f.Or(expr(depth-1), expr(depth-1))
		case 3:
			return f.Some(roles[rng.Intn(2)], expr(depth-1))
		case 4:
			return f.All(roles[rng.Intn(2)], expr(depth-1))
		default:
			return f.Min(2, roles[rng.Intn(2)], cs[rng.Intn(n)])
		}
	}
	for i, k := 0, 4+rng.Intn(6); i < k; i++ {
		sub := cs[rng.Intn(n)]
		switch rng.Intn(5) {
		case 0:
			tb.EquivalentClasses(sub, f.And(cs[rng.Intn(n)], expr(1)))
		case 1:
			tb.DisjointClasses(sub, cs[rng.Intn(n)])
		default:
			tb.SubClassOf(sub, expr(2))
		}
	}
	return tb
}

// TestQuickModulePreservesEntailments is the module-correctness property:
// for every pair of seed concepts, subsumption (and satisfiability) in
// the module agrees with the full ontology.
func TestQuickModulePreservesEntailments(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		tb := randomTBox(rng, n)
		// Random seed signature of 1-3 concepts.
		var seeds []string
		for i := 0; i < 1+rng.Intn(3); i++ {
			seeds = append(seeds, fmt.Sprintf("N%d", rng.Intn(n)))
		}
		m, err := Extract(tb, seeds)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full := tableau.New(tb, tableau.Options{})
		mod := tableau.New(m, tableau.Options{})
		for _, sub := range seeds {
			for _, sup := range seeds {
				fullAns, err1 := full.Subs(context.Background(), tb.Factory.Name(sup), tb.Factory.Name(sub))
				modAns, err2 := mod.Subs(context.Background(), m.Factory.Name(sup), m.Factory.Name(sub))
				if err1 != nil || err2 != nil {
					continue
				}
				if fullAns != modAns {
					t.Logf("seed %d: %s ⊑ %s: full=%v module=%v", seed, sub, sup, fullAns, modAns)
					return false
				}
			}
			fullSat, err1 := full.Sat(context.Background(), tb.Factory.Name(sub))
			modSat, err2 := mod.Sat(context.Background(), m.Factory.Name(sub))
			if err1 == nil && err2 == nil && fullSat != modSat {
				t.Logf("seed %d: sat(%s): full=%v module=%v", seed, sub, fullSat, modSat)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestModuleMuchSmallerOnCorpus: on a generated Table IV corpus, a
// single-concept module is a small fraction of the ontology.
func TestModuleMuchSmallerOnCorpus(t *testing.T) {
	p := ontogen.Mini(ontogen.TableIV[0], 10) // WBbt at 1/10: ~678 concepts
	tb, err := p.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	seed := tb.NamedConcepts()[len(tb.NamedConcepts())/2].Name
	m, err := Extract(tb, []string{seed})
	if err != nil {
		t.Fatal(err)
	}
	if got, full := m.NumNamed(), tb.NumNamed(); got >= full/2 {
		t.Errorf("module has %d of %d concepts — not much of a module", got, full)
	}
}
