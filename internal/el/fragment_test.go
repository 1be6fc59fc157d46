package el

import (
	"context"
	"slices"
	"testing"

	"parowl/internal/bitset"
	"parowl/internal/dl"
	"parowl/internal/reasoner"
)

// mixedTBox has one axiom of each coverage class: a kept EL axiom, a
// conjunctive right side with one non-EL conjunct (weakened), and a
// wholly non-EL axiom (dropped).
func mixedTBox() *dl.TBox {
	tb := dl.NewTBox("mixed")
	f := tb.Factory
	a, b, c, d := tb.Declare("A"), tb.Declare("B"), tb.Declare("C"), tb.Declare("D")
	r := f.Role("r")
	tb.SubClassOf(a, b)                     // kept
	tb.SubClassOf(c, f.And(a, f.All(r, b))) // weakened: keeps C ⊑ A
	tb.SubClassOf(d, f.Not(b))              // dropped: non-EL right side
	tb.SubClassOf(f.All(r, a), b)           // dropped: non-EL left side
	return tb
}

func TestFragmentCoverage(t *testing.T) {
	tb := mixedTBox()
	frag, cov := NewFragment(tb, Options{})
	// EquivalentClasses etc. are absent, so AsGCIs yields exactly the four
	// axioms above.
	if cov.Kept != 1 || cov.Weakened != 1 || cov.Dropped != 2 {
		t.Fatalf("coverage = %+v, want {Kept:1 Weakened:1 Dropped:2}", cov)
	}
	if cov.Complete() {
		t.Error("partial fragment reported complete")
	}
	f := tb.Factory
	// The weakened axiom's EL conjunct survives: C ⊑ A ⊑ B.
	mustSubs(t, frag, f.Name("B"), f.Name("C"), true)
	// The dropped ∀-conjunct must not have leaked in any form.
	mustSubs(t, frag, f.Name("B"), f.Name("D"), false)
}

func TestFragmentCompleteOnPureEL(t *testing.T) {
	tb := dl.NewTBox("pure")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	tb.SubClassOf(a, f.And(b, f.Some(f.Role("r"), b)))
	frag, cov := NewFragment(tb, Options{})
	if !cov.Complete() {
		t.Fatalf("pure EL TBox: coverage = %+v, want complete", cov)
	}
	// A complete fragment is the real reasoner: its answers are exact.
	mustSubs(t, frag, f.Name("B"), f.Name("A"), true)
	mustSubs(t, frag, f.Name("A"), f.Name("B"), false)
}

// TestFragmentNeverDisproves is the soundness switch: a partial fragment
// proves but never refutes — its saturation is only a lower bound — so
// the EL reasoner must not offer the classifier a model filter, partial
// or complete (a complete fragment is decided by the prepass before any
// filter could run).
func TestFragmentNeverDisproves(t *testing.T) {
	frag, cov := NewFragment(mixedTBox(), Options{})
	if cov.Complete() {
		t.Fatal("test needs a partial fragment")
	}
	if reasoner.AsRowFilter(frag) != nil || reasoner.AsModelFilter(frag) != nil {
		t.Error("the EL reasoner offers a model filter")
	}
}

func TestFragmentSeeds(t *testing.T) {
	tb := dl.NewTBox("seeds")
	f := tb.Factory
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	u := tb.Declare("U")
	r := f.Role("r")
	tb.SubClassOf(a, b)
	tb.SubClassOf(c, f.And(a, f.All(r, b))) // weakened to C ⊑ A
	tb.SubClassOf(u, f.Bottom())
	frag, _ := NewFragment(tb, Options{})
	named := tb.NamedConcepts()
	top := len(named)
	type fact struct{ sub, sup *dl.Concept }
	var (
		seeds []fact
		unsat []*dl.Concept
		rows  []int
	)
	err := frag.Seeds(context.Background(),
		func(i int) {
			if len(rows) > 0 {
				t.Errorf("unsat %v reported after a row", named[i])
			}
			unsat = append(unsat, named[i])
		},
		func(i int, sups *bitset.Set) {
			if sups.Len() != top+1 {
				t.Fatalf("row %d has capacity %d, want %d", i, sups.Len(), top+1)
			}
			if len(rows) > 0 && i <= rows[len(rows)-1] {
				t.Errorf("row %d after row %d", i, rows[len(rows)-1])
			}
			rows = append(rows, i)
			sub := f.Top()
			if i < top {
				sub = named[i]
			}
			sups.ForEach(func(j int) bool {
				sup := f.Top()
				if j < top {
					sup = named[j]
				}
				seeds = append(seeds, fact{sub, sup})
				return true
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(unsat) != 1 || unsat[0] != u {
		t.Fatalf("unsat = %v, want [U]", unsat)
	}
	for _, want := range []fact{
		{a, b}, {c, a}, {c, b}, // told, weakened-kept, transitive
	} {
		if !slices.Contains(seeds, want) {
			t.Errorf("seeds missing %v ⊑ %v (got %v)", want.sub, want.sup, seeds)
		}
	}
	for _, s := range seeds {
		if s.sub == s.sup {
			t.Errorf("reflexive seed %v", s)
		}
		if s.sup.Op == dl.OpTop {
			t.Errorf("trivial ⊤ seed for %v", s.sub)
		}
		if s.sub == u || s.sup == u {
			t.Errorf("seed involves unsatisfiable concept: %v", s)
		}
	}
}
