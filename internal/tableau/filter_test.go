package tableau

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"parowl/internal/dl"
)

// TestDisprovesSubsSound property-checks the filter's one-sided contract:
// whenever DisprovesSubs answers true, the full tableau must agree the
// subsumption does not hold. False answers promise nothing. Half the
// ontologies carry a role inclusion r ⊑ s, so merges across ∃/∀ and
// number restrictions on related roles are exercised too.
func TestDisprovesSubsSound(t *testing.T) {
	ctx := context.Background()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := dl.NewTBox("filter")
		f := tb.Factory
		n := 4 + rng.Intn(4)
		cs := make([]*dl.Concept, n)
		for i := range cs {
			cs[i] = tb.Declare(fmt.Sprintf("M%d", i))
		}
		roles := []*dl.Role{f.Role("r"), f.Role("s")}
		if rng.Intn(2) == 0 {
			tb.SubObjectPropertyOf(roles[0], roles[1])
		}
		for i, k := 0, 3+rng.Intn(6); i < k; i++ {
			sub := cs[rng.Intn(n)]
			switch rng.Intn(6) {
			case 0:
				tb.SubClassOf(sub, f.Some(roles[rng.Intn(2)], cs[rng.Intn(n)]))
			case 1:
				tb.SubClassOf(sub, f.All(roles[rng.Intn(2)], cs[rng.Intn(n)]))
			case 2:
				tb.SubClassOf(sub, f.Min(2, roles[rng.Intn(2)], cs[rng.Intn(n)]))
			case 3:
				tb.SubClassOf(sub, f.Max(1+rng.Intn(2), roles[rng.Intn(2)], cs[rng.Intn(n)]))
			case 4:
				tb.DisjointClasses(sub, cs[rng.Intn(n)])
			default:
				tb.SubClassOf(sub, cs[rng.Intn(n)])
			}
		}
		r := New(tb, Options{})
		for _, sub := range tb.NamedConcepts() {
			for _, sup := range tb.NamedConcepts() {
				if !r.DisprovesSubs(ctx, sup, sub) {
					continue
				}
				holds, err := r.Subs(context.Background(), sup, sub)
				if err != nil {
					continue // budget blowup: nothing to compare
				}
				if holds {
					t.Logf("seed %d: filter disproved %v ⊑ %v but it holds", seed, sub, sup)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDisprovesSubsFires: on a flat ontology of unrelated concepts the
// pseudo-models are tiny and clash-free, so the filter must disprove
// every cross pair — the workload where the cheap-first pipeline pays.
func TestDisprovesSubsFires(t *testing.T) {
	ctx := context.Background()
	tb := dl.NewTBox("flat")
	f := tb.Factory
	for i := 0; i < 8; i++ {
		tb.SubClassOf(tb.Declare(fmt.Sprintf("F%d", i)), f.Some(f.Role(fmt.Sprintf("q%d", i)), tb.Declare(fmt.Sprintf("G%d", i))))
	}
	r := New(tb, Options{})
	hits := 0
	for _, sub := range tb.NamedConcepts() {
		for _, sup := range tb.NamedConcepts() {
			if sub == sup {
				continue
			}
			if r.DisprovesSubs(ctx, sup, sub) {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("filter never fired on a flat ontology")
	}
	if r.Stats().MergeSkips.Load() == 0 {
		t.Error("MergeSkips not counted for filter hits")
	}

	// Unsatisfiable left side: sub ⊑ anything holds vacuously, so the
	// filter must answer "don't know", never a wrong disproof. (Fresh
	// TBox: New froze the one above.)
	tb2 := dl.NewTBox("unsatleft")
	f2 := tb2.Factory
	a, b, u := tb2.Declare("A"), tb2.Declare("B"), tb2.Declare("U")
	tb2.SubClassOf(u, f2.And(a, f2.Not(a)))
	r2 := New(tb2, Options{})
	if r2.DisprovesSubs(ctx, b, u) {
		t.Error("filter disproved a vacuous subsumption from an unsat left side")
	}
}
