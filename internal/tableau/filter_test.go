package tableau

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"parowl/internal/bitset"
	"parowl/internal/dl"
	"parowl/internal/ontogen"
)

// randomFilterTBox builds a small random TBox of ∃, ∀, ≥, ≤, disjointness
// and atomic axioms over two roles; half the TBoxes carry the role
// inclusion r ⊑ s, so merges across ∃/∀ and number restrictions on
// related roles are exercised too.
func randomFilterTBox(seed int64) *dl.TBox {
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
	return tb
}

// roleConcepts lists quantified concepts over the role inclusion r ⊑ s
// in a TBox with no other axiom, so the only clashes between their
// pseudo models are through roles: pm(¬∀r.D) = pm(∃r.¬D) creates
// r-successors that ∀s.D constrains, and pm(¬∃s.B) constrains the
// s-successors that ∃r.B creates. Rows must close both role columns
// under the hierarchy to leave those (true) subsumptions undisproved.
func roleConcepts() (*dl.TBox, []*dl.Concept) {
	tb := dl.NewTBox("roles")
	f := tb.Factory
	r, s := f.Role("r"), f.Role("s")
	tb.SubObjectPropertyOf(r, s)
	b, d, h := tb.Declare("B"), tb.Declare("D"), tb.Declare("H")
	var cs []*dl.Concept
	for _, q := range []*dl.Role{r, s} {
		cs = append(cs, f.Some(q, b), f.All(q, d), f.Min(2, q, b), f.Max(1, q, h))
	}
	return tb, append(cs, b, d, f.Top())
}

// filterConcepts lists a TBox's named concepts followed by ⊤, the
// order the classifier indexes them in.
func filterConcepts(tb *dl.TBox) []*dl.Concept {
	return append(tb.NamedConcepts(), tb.Factory.Top())
}

// rowsAfterSweep builds the filter rows the way the classifier does:
// one Sat call per named concept first, so the index reads the pseudo
// models those calls kept. A Sat that blows its budget keeps no model,
// and neither filter form can build one for that concept either.
func rowsAfterSweep(tb *dl.TBox, cs []*dl.Concept) (*Reasoner, []*bitset.Set) {
	ctx := context.Background()
	r := New(tb, Options{})
	for _, c := range tb.NamedConcepts() {
		_, _ = r.Sat(ctx, c)
	}
	row := r.FilterRows(ctx, cs)
	rows := make([]*bitset.Set, len(cs))
	for x := range cs {
		rows[x] = bitset.New(len(cs))
		row(x, rows[x])
	}
	return r, rows
}

// TestDisprovesSubsSound property-checks the filter's one-sided contract
// for both of its forms: whenever DisprovesSubs answers true, or a row
// of FilterRows holds the pair, the full tableau must agree the
// subsumption does not hold. False answers promise nothing.
func TestDisprovesSubsSound(t *testing.T) {
	check := func(seed int64) bool {
		tb := randomFilterTBox(seed)
		return disproofsHold(t, fmt.Sprintf("seed %d", seed), tb, filterConcepts(tb))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if tb, cs := roleConcepts(); !disproofsHold(t, tb.Name, tb, cs) {
		t.Fatal("unsound disproof on the role concepts")
	}
}

// disproofsHold checks every disproof either filter form makes over cs
// against Subs, logging the first that fails.
func disproofsHold(t *testing.T, where string, tb *dl.TBox, cs []*dl.Concept) bool {
	ctx := context.Background()
	r, rows := rowsAfterSweep(tb, cs)
	for x, sup := range cs {
		for y, sub := range cs {
			pair, row := r.DisprovesSubs(ctx, sup, sub), rows[x].Test(y)
			if !pair && !row {
				continue
			}
			holds, err := r.Subs(ctx, sup, sub)
			if err != nil {
				continue // budget blowup: nothing to compare
			}
			if holds {
				t.Logf("%s: filter (pairwise %v, row %v) disproved %v ⊑ %v but it holds", where, pair, row, sub, sup)
				return false
			}
		}
	}
	return true
}

// matchPairwise checks that row x of the filter holds exactly the y that
// DisprovesSubs on a fresh reasoner (pseudo models built by the filter
// itself, not kept by Sat) disproves, and returns the hit count.
func matchPairwise(t *testing.T, tb *dl.TBox, cs []*dl.Concept, rows []*bitset.Set) (hits int) {
	t.Helper()
	ctx := context.Background()
	pairwise := New(tb, Options{})
	for x, sup := range cs {
		for y, sub := range cs {
			want := pairwise.DisprovesSubs(ctx, sup, sub)
			if got := rows[x].Test(y); got != want {
				t.Fatalf("%s: row %v holds %v: %v, DisprovesSubs says %v", tb.Name, sup, sub, got, want)
			}
			if want {
				hits++
			}
		}
	}
	return hits
}

// TestFilterRowsMatchPairwise: FilterRows is DisprovesSubs a row at a
// time, on random TBoxes with role inclusions and ≥/≤ and on generated
// corpora, and a nil concept is neither indexed nor given a row.
func TestFilterRowsMatchPairwise(t *testing.T) {
	check := func(seed int64) bool {
		tb := randomFilterTBox(seed)
		cs := filterConcepts(tb)
		_, rows := rowsAfterSweep(tb, cs)
		matchPairwise(t, tb, cs, rows)

		gap := len(cs) / 2
		holed := append([]*dl.Concept(nil), cs...)
		holed[gap] = nil
		_, rows = rowsAfterSweep(randomFilterTBox(seed), holed)
		for x, row := range rows {
			if row.Test(gap) || x == gap && !row.IsEmpty() {
				t.Logf("seed %d: nil concept at %d indexed or given a row", seed, gap)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	tb, cs := roleConcepts()
	_, rows := rowsAfterSweep(tb, cs)
	matchPairwise(t, tb, cs, rows)
	if testing.Short() {
		return
	}
	for _, c := range []struct {
		profile string
		scale   int
	}{
		{"nskisimple_functional", 6},
		{"rnao_functional", 12},
		{"ncitations_functional", 8},
		{"ddiv2_functional", 8},
	} {
		p, ok := ontogen.ByName(c.profile)
		if !ok {
			t.Fatalf("profile %s missing", c.profile)
		}
		tb, err := ontogen.Mini(p, c.scale).Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		cs := filterConcepts(tb)
		_, rows := rowsAfterSweep(tb, cs)
		hits := matchPairwise(t, tb, cs, rows)
		t.Logf("%s/%d: %d concepts, %d filter hits", c.profile, c.scale, len(cs), hits)
		if hits == 0 {
			t.Errorf("%s/%d: the filter disproved nothing", c.profile, c.scale)
		}
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
