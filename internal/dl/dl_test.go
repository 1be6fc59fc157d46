package dl

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestFactoryInterning(t *testing.T) {
	f := NewFactory()
	a1, a2 := f.Name("A"), f.Name("A")
	if a1 != a2 {
		t.Fatal("Name not interned")
	}
	b := f.Name("B")
	if a1 == b {
		t.Fatal("distinct names share pointer")
	}
	r := f.Role("r")
	if f.Role("r") != r {
		t.Fatal("Role not interned")
	}
	if f.Some(r, a1) != f.Some(r, a1) {
		t.Fatal("Some not interned")
	}
	if f.And(a1, b) != f.And(b, a1) {
		t.Fatal("And not order-canonical")
	}
	if f.Or(a1, b) != f.Or(b, a1, a1) {
		t.Fatal("Or not dedup-canonical")
	}
}

func TestOWLThingNothingAliases(t *testing.T) {
	f := NewFactory()
	if f.Name("owl:Thing") != f.Top() {
		t.Error("owl:Thing != Top")
	}
	if f.Name("owl:Nothing") != f.Bottom() {
		t.Error("owl:Nothing != Bottom")
	}
}

func TestAndOrSimplification(t *testing.T) {
	f := NewFactory()
	a, b := f.Name("A"), f.Name("B")
	if f.And(a, f.Top()) != a {
		t.Error("A ⊓ ⊤ ≠ A")
	}
	if f.And(a, f.Bottom()) != f.Bottom() {
		t.Error("A ⊓ ⊥ ≠ ⊥")
	}
	if f.Or(a, f.Top()) != f.Top() {
		t.Error("A ⊔ ⊤ ≠ ⊤")
	}
	if f.Or(a, f.Bottom()) != a {
		t.Error("A ⊔ ⊥ ≠ A")
	}
	if f.And(a) != a {
		t.Error("unary And not collapsed")
	}
	if f.And() != f.Top() {
		t.Error("empty And ≠ ⊤")
	}
	if f.Or() != f.Bottom() {
		t.Error("empty Or ≠ ⊥")
	}
	// Nested flattening.
	abc := f.And(a, f.And(b, f.Name("C")))
	if len(abc.Args) != 3 {
		t.Errorf("nested And not flattened: %v", abc)
	}
	// Complementary pair (requires the negation to exist).
	na := f.Not(a)
	if f.And(a, na) != f.Bottom() {
		t.Error("A ⊓ ¬A ≠ ⊥")
	}
	if f.Or(a, na) != f.Top() {
		t.Error("A ⊔ ¬A ≠ ⊤")
	}
}

func TestNotNNF(t *testing.T) {
	f := NewFactory()
	a, b := f.Name("A"), f.Name("B")
	r := f.Role("r")
	cases := []struct {
		in   *Concept
		want *Concept
	}{
		{f.Top(), f.Bottom()},
		{f.Bottom(), f.Top()},
		{f.And(a, b), f.Or(f.Not(a), f.Not(b))},
		{f.Or(a, b), f.And(f.Not(a), f.Not(b))},
		{f.Some(r, a), f.All(r, f.Not(a))},
		{f.All(r, a), f.Some(r, f.Not(a))},
		{f.Min(3, r, a), f.Max(2, r, a)},
		{f.Max(2, r, a), f.Min(3, r, a)},
	}
	for _, c := range cases {
		if got := f.Not(c.in); got != c.want {
			t.Errorf("Not(%v) = %v, want %v", c.in, got, c.want)
		}
		if f.Not(f.Not(c.in)) != c.in {
			t.Errorf("double negation of %v not identity", c.in)
		}
	}
}

func TestQuantifierSimplification(t *testing.T) {
	f := NewFactory()
	a := f.Name("A")
	r := f.Role("r")
	if f.Some(r, f.Bottom()) != f.Bottom() {
		t.Error("∃r.⊥ ≠ ⊥")
	}
	if f.All(r, f.Top()) != f.Top() {
		t.Error("∀r.⊤ ≠ ⊤")
	}
	if f.Min(0, r, a) != f.Top() {
		t.Error("≥0 ≠ ⊤")
	}
	if f.Min(1, r, a) != f.Some(r, a) {
		t.Error("≥1 r.A ≠ ∃r.A")
	}
	if f.Min(2, r, f.Bottom()) != f.Bottom() {
		t.Error("≥2 r.⊥ ≠ ⊥")
	}
	if f.Max(0, r, f.Bottom()) != f.Top() {
		t.Error("≤0 r.⊥ ≠ ⊤")
	}
}

func TestConceptString(t *testing.T) {
	f := NewFactory()
	a, b := f.Name("A"), f.Name("B")
	r := f.Role("r")
	c := f.And(a, f.Some(r, f.Or(b, f.Not(a))))
	got := c.String()
	if got != "A ⊓ (∃r.(¬A ⊔ B))" && got != "A ⊓ (∃r.(B ⊔ ¬A))" {
		t.Errorf("String = %q", got)
	}
	if s := f.Max(2, r, b).String(); s != "≤2 r.B" {
		t.Errorf("Max String = %q", s)
	}
}

func TestRoleHierarchy(t *testing.T) {
	f := NewFactory()
	r, s, u := f.Role("r"), f.Role("s"), f.Role("u")
	r.AddSuper(s)
	s.AddSuper(u)
	if !r.IsSubRoleOf(r) {
		t.Error("r not reflexive sub-role of itself")
	}
	if !r.IsSubRoleOf(u) {
		t.Error("r ⊑* u not detected")
	}
	if u.IsSubRoleOf(r) {
		t.Error("u ⊑* r wrongly detected")
	}
	anc := r.Ancestors()
	if len(anc) != 3 {
		t.Errorf("Ancestors(r) = %d roles, want 3", len(anc))
	}
	// Cycles must not loop forever.
	u.AddSuper(r)
	if !u.IsSubRoleOf(s) {
		t.Error("cycle closure broken")
	}
}

func TestTBoxBuildAndFreeze(t *testing.T) {
	tb := NewTBox("test")
	f := tb.Factory
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	tb.SubClassOf(a, b)
	tb.EquivalentClasses(b, c)
	tb.DisjointClasses(a, c)
	r, s := f.Role("r"), f.Role("s")
	tb.SubObjectPropertyOf(r, s)
	tb.TransitiveObjectProperty(s)
	if tb.NumNamed() != 3 {
		t.Fatalf("NumNamed = %d, want 3", tb.NumNamed())
	}
	if got := len(tb.Axioms()); got != 5 {
		t.Fatalf("axioms = %d, want 5", got)
	}
	gcis := tb.AsGCIs()
	// 1 SubClassOf + 2 from Equivalent + 1 from Disjoint = 4.
	if len(gcis) != 4 {
		t.Fatalf("AsGCIs = %d, want 4", len(gcis))
	}
	for _, g := range gcis {
		if g.Kind != AxSubClassOf {
			t.Fatalf("AsGCIs produced %v", g.Kind)
		}
	}
	tb.Freeze()
	tb.Freeze() // idempotent
	defer func() {
		if recover() == nil {
			t.Error("mutation after Freeze did not panic")
		}
	}()
	tb.SubClassOf(a, c)
}

func TestNamedConceptsFromSubexpressions(t *testing.T) {
	tb := NewTBox("test")
	f := tb.Factory
	r := f.Role("r")
	tb.SubClassOf(f.Name("A"), f.Some(r, f.And(f.Name("B"), f.Name("C"))))
	if tb.NumNamed() != 3 {
		t.Fatalf("NumNamed = %d, want 3 (nested names must be collected)", tb.NumNamed())
	}
}

func TestMetricsAndExpressivity(t *testing.T) {
	// EL ontology: only ⊓ and ∃.
	tb := NewTBox("el")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	r := f.Role("r")
	tb.SubClassOf(a, f.Some(r, b))
	tb.SubClassOf(f.And(a, b), b)
	m := ComputeMetrics(tb)
	if m.Expressivity != "EL" {
		t.Errorf("expressivity = %s, want EL", m.Expressivity)
	}
	if m.Somes != 1 || m.SubClassOf != 2 {
		t.Errorf("metrics = %+v", m)
	}

	// ELH+: role hierarchy + transitivity.
	tb2 := NewTBox("elh+")
	f2 := tb2.Factory
	r2, s2 := f2.Role("r"), f2.Role("s")
	tb2.SubClassOf(tb2.Declare("A"), f2.Some(r2, tb2.Declare("B")))
	tb2.SubObjectPropertyOf(r2, s2)
	tb2.TransitiveObjectProperty(s2)
	if m := ComputeMetrics(tb2); m.Expressivity != "ELH+" {
		t.Errorf("expressivity = %s, want ELH+", m.Expressivity)
	}

	// SHQ: transitive + hierarchy + QCR.
	tb3 := NewTBox("shq")
	f3 := tb3.Factory
	r3, s3 := f3.Role("r"), f3.Role("s")
	a3, b3 := tb3.Declare("A"), tb3.Declare("B")
	tb3.SubClassOf(a3, f3.Min(2, r3, b3))
	tb3.SubClassOf(a3, f3.All(s3, b3))
	tb3.SubObjectPropertyOf(r3, s3)
	tb3.TransitiveObjectProperty(s3)
	m3 := ComputeMetrics(tb3)
	if m3.Expressivity != "SHQ" {
		t.Errorf("expressivity = %s, want SHQ", m3.Expressivity)
	}
	if m3.QCRs != 1 || m3.Alls != 1 {
		t.Errorf("metrics = %+v", m3)
	}

	// ALC: negation, no transitivity.
	tb4 := NewTBox("alc")
	f4 := tb4.Factory
	a4 := tb4.Declare("A")
	tb4.SubClassOf(a4, f4.Not(tb4.Declare("B")))
	if m := ComputeMetrics(tb4); m.Expressivity != "ALC" {
		t.Errorf("expressivity = %s, want ALC", m.Expressivity)
	}
	// ALCN: unqualified cardinality.
	tb5 := NewTBox("alcn")
	f5 := tb5.Factory
	tb5.SubClassOf(tb5.Declare("A"), f5.Or(f5.Max(3, f5.Role("r"), f5.Top()), tb5.Declare("B")))
	if m := ComputeMetrics(tb5); m.Expressivity != "ALCN" {
		t.Errorf("expressivity = %s, want ALCN", m.Expressivity)
	}
}

// TestConcurrentInterning checks that concurrent factory use yields a
// single canonical pointer per expression.
func TestConcurrentInterning(t *testing.T) {
	f := NewFactory()
	const workers = 8
	results := make([][]*Concept, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := f.Role("r")
			for i := 0; i < 200; i++ {
				a := f.Name("A")
				b := f.Name("B")
				results[w] = append(results[w], f.And(a, f.Some(r, b)), f.Not(f.Or(a, b)))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d produced non-canonical pointer at %d", w, i)
			}
		}
	}
}

// randomConcept builds a random concept over a small vocabulary.
func randomConcept(f *Factory, rng *rand.Rand, depth int) *Concept {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return f.Top()
		case 1:
			return f.Bottom()
		default:
			return f.Name(string(rune('A' + rng.Intn(4))))
		}
	}
	r := f.Role(string(rune('r' + rng.Intn(2))))
	switch rng.Intn(7) {
	case 0:
		return f.Not(randomConcept(f, rng, depth-1))
	case 1:
		return f.And(randomConcept(f, rng, depth-1), randomConcept(f, rng, depth-1))
	case 2:
		return f.Or(randomConcept(f, rng, depth-1), randomConcept(f, rng, depth-1))
	case 3:
		return f.Some(r, randomConcept(f, rng, depth-1))
	case 4:
		return f.All(r, randomConcept(f, rng, depth-1))
	case 5:
		return f.Min(1+rng.Intn(3), r, randomConcept(f, rng, depth-1))
	default:
		return f.Max(rng.Intn(3), r, randomConcept(f, rng, depth-1))
	}
}

// TestQuickDoubleNegation property-checks ¬¬C = C on random concepts. The
// fixed seed builds (∀r.(D ⊔ A)) ⊓ (≤1 s.⊤) ⊓ (≤2 s.D) ⊓ (≥2 s.⊤) ⊓ (∀s.¬D)
// in a fresh factory: its clashing ≤1/≥2 pair must fold to ⊥ on first
// construction, not only once ¬(≤1 s.⊤) has been built by ¬¬C.
func TestQuickDoubleNegation(t *testing.T) {
	check := func(f *Factory, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomConcept(f, rng, 4)
		if nn := f.Not(f.Not(c)); nn != c {
			t.Logf("seed %d: %v rebuilds as %v under ¬¬", seed, c, nn)
			return false
		}
		return true
	}
	if !check(NewFactory(), -6095054347168317298) {
		t.Fatal("fixed seed failed")
	}
	f := NewFactory()
	if err := quick.Check(func(seed int64) bool { return check(f, seed) }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNNFNoInnerNegation checks negations only ever wrap names.
func TestQuickNNFNoInnerNegation(t *testing.T) {
	f := NewFactory()
	var wellFormed func(c *Concept) bool
	wellFormed = func(c *Concept) bool {
		if c.Op == OpNot && c.Args[0].Op != OpName {
			return false
		}
		for _, a := range c.Args {
			if !wellFormed(a) {
				return false
			}
		}
		return true
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomConcept(f, rng, 4)
		return wellFormed(c) && wellFormed(f.Not(c))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeMorgan checks ¬(C ⊓ D) = ¬C ⊔ ¬D structurally via interning.
func TestQuickDeMorgan(t *testing.T) {
	f := NewFactory()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomConcept(f, rng, 3)
		d := randomConcept(f, rng, 3)
		return f.Not(f.And(c, d)) == f.Or(f.Not(c), f.Not(d)) &&
			f.Not(f.Or(c, d)) == f.And(f.Not(c), f.Not(d))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
