package el

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"parowl/internal/dl"
)

func mustSubs(t *testing.T, r *Reasoner, sup, sub *dl.Concept, want bool) {
	t.Helper()
	got, err := r.Subs(context.Background(), sup, sub)
	if err != nil {
		t.Fatalf("Subsumes(%v ⊒ %v): %v", sup, sub, err)
	}
	if got != want {
		t.Fatalf("Subsumes(%v ⊒ %v) = %v, want %v", sup, sub, got, want)
	}
}

func TestSimpleChain(t *testing.T) {
	tb := dl.NewTBox("chain")
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	tb.SubClassOf(a, b)
	tb.SubClassOf(b, c)
	r, err := New(tb, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustSubs(t, r, b, a, true)
	mustSubs(t, r, c, a, true)
	mustSubs(t, r, a, b, false)
	mustSubs(t, r, tb.Factory.Top(), a, true)
}

func TestConjunctionRule(t *testing.T) {
	tb := dl.NewTBox("conj")
	f := tb.Factory
	a, b, c, d := tb.Declare("A"), tb.Declare("B"), tb.Declare("C"), tb.Declare("D")
	tb.SubClassOf(a, b)
	tb.SubClassOf(a, c)
	tb.SubClassOf(f.And(b, c), d)
	r, err := New(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubs(t, r, d, a, true)
	mustSubs(t, r, d, b, false)
}

func TestExistentialRules(t *testing.T) {
	tb := dl.NewTBox("ex")
	f := tb.Factory
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	rr := f.Role("r")
	tb.SubClassOf(a, f.Some(rr, b))
	tb.SubClassOf(f.Some(rr, b), c)
	r, err := New(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubs(t, r, c, a, true)
}

func TestNestedExistentials(t *testing.T) {
	tb := dl.NewTBox("nested")
	f := tb.Factory
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	rr, ss := f.Role("r"), f.Role("s")
	// A ⊑ ∃r.(B ⊓ ∃s.C); ∃r.∃s.C... the normalizer must introduce names.
	tb.SubClassOf(a, f.Some(rr, f.And(b, f.Some(ss, c))))
	tb.SubClassOf(f.Some(rr, f.Some(ss, c)), b)
	r, err := New(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// hmm: ∃r.(B ⊓ ∃s.C) ⊑ ∃r.(∃s.C), so A ⊑ B.
	mustSubs(t, r, b, a, true)
}

func TestBottomPropagation(t *testing.T) {
	tb := dl.NewTBox("bot")
	f := tb.Factory
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	rr := f.Role("r")
	tb.SubClassOf(b, f.Bottom())    // B unsatisfiable
	tb.SubClassOf(a, f.Some(rr, b)) // A has an r-successor in B → A unsatisfiable
	r, err := New(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*dl.Concept{a, b} {
		sat, err := r.Sat(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if sat {
			t.Errorf("%v should be unsatisfiable", x)
		}
	}
	sat, err := r.Sat(context.Background(), c)
	if err != nil || !sat {
		t.Errorf("C should be satisfiable (err=%v)", err)
	}
	// Unsat concepts are subsumed by everything.
	mustSubs(t, r, c, a, true)
}

func TestDisjointnessAsBottom(t *testing.T) {
	tb := dl.NewTBox("disj")
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	tb.DisjointClasses(a, b)
	tb.SubClassOf(c, a)
	tb.SubClassOf(c, b)
	r, err := New(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sat, err := r.Sat(context.Background(), c)
	if err != nil || sat {
		t.Errorf("C should be unsatisfiable (sat=%v err=%v)", sat, err)
	}
}

func TestRoleHierarchy(t *testing.T) {
	tb := dl.NewTBox("rh")
	f := tb.Factory
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	rr, ss := f.Role("r"), f.Role("s")
	tb.SubObjectPropertyOf(rr, ss)
	tb.SubClassOf(a, f.Some(rr, b))
	tb.SubClassOf(f.Some(ss, b), c)
	r, err := New(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubs(t, r, c, a, true)
}

func TestTransitivity(t *testing.T) {
	tb := dl.NewTBox("trans")
	f := tb.Factory
	a, b, c, d := tb.Declare("A"), tb.Declare("B"), tb.Declare("C"), tb.Declare("D")
	rr := f.Role("r")
	tb.TransitiveObjectProperty(rr)
	tb.SubClassOf(a, f.Some(rr, b))
	tb.SubClassOf(b, f.Some(rr, c))
	tb.SubClassOf(f.Some(rr, c), d)
	r, err := New(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A −r→ B −r→ C with trans(r) gives A −r→ C, so A ⊑ ∃r.C ⊑ D.
	mustSubs(t, r, d, a, true)
}

func TestEquivalence(t *testing.T) {
	// A ≡ ∃r.B: any X ⊑ ∃r.B must be classified under A.
	tb2 := dl.NewTBox("equiv2")
	f2 := tb2.Factory
	a2, b2, x2 := tb2.Declare("A"), tb2.Declare("B"), tb2.Declare("X")
	rr2 := f2.Role("r")
	tb2.EquivalentClasses(a2, f2.Some(rr2, b2))
	tb2.SubClassOf(x2, f2.Some(rr2, b2))
	r2, err := New(tb2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustSubs(t, r2, a2, x2, true)
}

func TestNonELRejected(t *testing.T) {
	tb := dl.NewTBox("alc")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	tb.SubClassOf(a, f.Or(b, f.Name("C")))
	if _, err := New(tb, Options{}); err == nil {
		t.Fatal("union axiom accepted by EL reasoner")
	}
	tb2 := dl.NewTBox("alc2")
	f2 := tb2.Factory
	tb2.SubClassOf(tb2.Declare("A"), f2.All(f2.Role("r"), tb2.Declare("B")))
	if _, err := New(tb2, Options{}); err == nil {
		t.Fatal("universal restriction accepted by EL reasoner")
	}
}

// namedSubsumers counts the named concepts that subsume c, c included.
func namedSubsumers(t *testing.T, r *Reasoner, c *dl.Concept) int {
	t.Helper()
	n := 0
	for _, sup := range r.TBox().NamedConcepts() {
		ok, err := r.Subs(context.Background(), sup, c)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			n++
		}
	}
	return n
}

func TestSubsumersList(t *testing.T) {
	tb := dl.NewTBox("list")
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	tb.SubClassOf(a, b)
	tb.SubClassOf(b, c)
	r, err := New(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := namedSubsumers(t, r, a); n != 3 { // A, B, C
		t.Fatalf("A has %d named subsumers, want 3", n)
	}
}

// TestDeepChainStress saturates a 2000-deep subclass chain.
func TestDeepChainStress(t *testing.T) {
	tb := dl.NewTBox("deep")
	prev := tb.Declare("D0")
	for i := 1; i < 2000; i++ {
		c := tb.Declare(fmt.Sprintf("D%d", i))
		tb.SubClassOf(c, prev)
		prev = c
	}
	r, err := New(tb, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := r.Subs(context.Background(), tb.Factory.Name("D0"), tb.Factory.Name("D1999"))
	if err != nil || !ok {
		t.Fatalf("deep chain subsumption lost: %v %v", ok, err)
	}
	if n := namedSubsumers(t, r, tb.Factory.Name("D1999")); n != 2000 {
		t.Errorf("subsumers = %d, want 2000", n)
	}
}

// TestWideFanStress: one parent with thousands of children plus an
// existential layer; checks no quadratic blowup kills the run.
func TestWideFanStress(t *testing.T) {
	tb := dl.NewTBox("wide")
	f := tb.Factory
	root := tb.Declare("Root")
	rr := f.Role("r")
	for i := 0; i < 3000; i++ {
		c := tb.Declare(fmt.Sprintf("W%d", i))
		tb.SubClassOf(c, root)
		if i%3 == 0 {
			tb.SubClassOf(c, f.Some(rr, root))
		}
	}
	r, err := New(tb, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tax, err := r.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tax.NodeOf(root).Children()); got != 3000 {
		t.Errorf("Root children = %d, want 3000", got)
	}
}

// TestDuplicateAxiomsHarmless: repeating axioms must not change results.
func TestDuplicateAxiomsHarmless(t *testing.T) {
	build := func(dups int) *Reasoner {
		tb := dl.NewTBox("dups")
		f := tb.Factory
		a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
		rr := f.Role("r")
		for i := 0; i <= dups; i++ {
			tb.SubClassOf(a, b)
			tb.SubClassOf(b, f.Some(rr, c))
			tb.SubClassOf(f.And(a, b), c)
		}
		r, err := New(tb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := build(0), build(7)
	t1, err := r1.Classify()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := r2.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !t1.Equal(t2) {
		t.Error("duplicate axioms changed the taxonomy")
	}
}

// TestQueriesRefuseForeignConcepts checks the guard on the ID-indexed
// query table: Sat and Subs answer only ⊤, ⊥ and named concepts of the
// reasoner's own TBox. A complex concept, whose ID lies inside the
// table, and a named concept of a second TBox declared in the same
// order, which shares a named concept's ID, both get the "not a named
// concept" error on either side of Subs.
func TestQueriesRefuseForeignConcepts(t *testing.T) {
	build := func(name string) (*dl.TBox, *dl.Concept) {
		tb := dl.NewTBox(name)
		f := tb.Factory
		a, b := tb.Declare("A"), tb.Declare("B")
		some := f.Some(f.Role("r"), a)
		tb.SubClassOf(b, a)
		tb.SubClassOf(tb.Declare("C"), some)
		return tb, some
	}
	tb, some := build("own")
	other, _ := build("other")
	r, err := New(tb, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f := tb.Factory
	a, b := f.Name("A"), f.Name("B")
	mustSubs(t, r, a, b, true)
	foreign := other.Factory.Name("A")
	if foreign.ID != a.ID {
		t.Fatalf("second TBox's A has ID %d, want %d", foreign.ID, a.ID)
	}
	if some.ID >= f.Name("C").ID {
		t.Fatalf("∃r.A (ID %d) not below C's ID %d, so it misses the table", some.ID, f.Name("C").ID)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "not a named concept") {
			t.Errorf("%s: err = %v, want a \"not a named concept\" error", what, err)
		}
	}
	for _, c := range []*dl.Concept{some, foreign} {
		_, err := r.Sat(ctx, c)
		refused(fmt.Sprintf("Sat(%v)", c), err)
		_, err = r.Subs(ctx, a, c)
		refused(fmt.Sprintf("Subs(A, %v)", c), err)
		_, err = r.Subs(ctx, c, b)
		refused(fmt.Sprintf("Subs(%v, B)", c), err)
	}
}
