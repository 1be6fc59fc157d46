package tableau

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"parowl/internal/dl"
)

func newEmpty(t *testing.T) (*dl.TBox, *dl.Factory, *Reasoner) {
	t.Helper()
	tb := dl.NewTBox("test")
	return tb, tb.Factory, nil // reasoner built after axioms are added
}

func mustSat(t *testing.T, r *Reasoner, c *dl.Concept, want bool) {
	t.Helper()
	got, err := r.Sat(context.Background(), c)
	if err != nil {
		t.Fatalf("IsSatisfiable(%v): %v", c, err)
	}
	if got != want {
		t.Fatalf("IsSatisfiable(%v) = %v, want %v", c, got, want)
	}
}

func mustSubs(t *testing.T, r *Reasoner, sup, sub *dl.Concept, want bool) {
	t.Helper()
	got, err := r.Subs(context.Background(), sup, sub)
	if err != nil {
		t.Fatalf("Subsumes(%v, %v): %v", sup, sub, err)
	}
	if got != want {
		t.Fatalf("Subsumes(%v ⊒ %v) = %v, want %v", sup, sub, got, want)
	}
}

// TestExample21 replays the paper's Example 2.1: C = (A ⊓ ¬A) ⊔ B is
// satisfiable — the first disjunct clashes, the second survives.
func TestExample21(t *testing.T) {
	tb, f, _ := newEmpty(t)
	a, b := f.Name("A"), f.Name("B")
	r := New(tb, Options{})
	c := f.Or(f.And(a, f.Not(a)), b)
	mustSat(t, r, c, true)
	mustSat(t, r, f.And(a, f.Not(a)), false)
}

func TestBasicBooleans(t *testing.T) {
	tb, f, _ := newEmpty(t)
	a, b := f.Name("A"), f.Name("B")
	r := New(tb, Options{})
	mustSat(t, r, f.Top(), true)
	mustSat(t, r, f.Bottom(), false)
	mustSat(t, r, a, true)
	mustSat(t, r, f.And(a, b), true)
	mustSat(t, r, f.And(a, f.Not(b)), true)
	mustSat(t, r, f.Or(f.And(a, f.Not(a)), f.And(b, f.Not(b))), false)
}

func TestQuantifierReasoning(t *testing.T) {
	tb, f, _ := newEmpty(t)
	a, b := f.Name("A"), f.Name("B")
	rr := f.Role("r")
	r := New(tb, Options{})
	// ∃r.A ⊓ ∀r.¬A is unsatisfiable.
	mustSat(t, r, f.And(f.Some(rr, a), f.All(rr, f.Not(a))), false)
	// ∃r.A ⊓ ∀r.B forces A ⊓ B at the successor: satisfiable.
	mustSat(t, r, f.And(f.Some(rr, a), f.All(rr, b)), true)
	// ∃r.(A ⊓ ¬A) is unsatisfiable.
	mustSat(t, r, f.Some(rr, f.And(a, f.Not(a))), false)
	// ∀r.⊥ alone is satisfiable (no successors needed).
	mustSat(t, r, f.All(rr, f.Bottom()), true)
	// but with ∃r.A it is not.
	mustSat(t, r, f.And(f.All(rr, f.Bottom()), f.Some(rr, a)), false)
}

func TestSubsumptionWithTBox(t *testing.T) {
	tb := dl.NewTBox("chain")
	f := tb.Factory
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	tb.SubClassOf(a, b)
	tb.SubClassOf(b, c)
	r := New(tb, Options{})
	mustSubs(t, r, b, a, true)
	mustSubs(t, r, c, a, true) // transitive through the TBox
	mustSubs(t, r, a, c, false)
	mustSubs(t, r, f.Top(), a, true)
	mustSubs(t, r, a, f.Bottom(), true)
}

func TestEquivalenceAndDisjointness(t *testing.T) {
	tb := dl.NewTBox("eqdis")
	f := tb.Factory
	a, b, c, d := tb.Declare("A"), tb.Declare("B"), tb.Declare("C"), tb.Declare("D")
	tb.EquivalentClasses(a, b)
	tb.DisjointClasses(c, d)
	tb.SubClassOf(c, a)
	r := New(tb, Options{})
	mustSubs(t, r, a, b, true)
	mustSubs(t, r, b, a, true)
	mustSat(t, r, f.And(c, d), false)
	mustSat(t, r, c, true)
	mustSubs(t, r, f.Not(d), c, true)
}

// TestGCICycleBlocking exercises equality blocking: A ⊑ ∃r.A would unravel
// forever without blocking.
func TestGCICycleBlocking(t *testing.T) {
	tb := dl.NewTBox("cycle")
	f := tb.Factory
	a := tb.Declare("A")
	rr := f.Role("r")
	tb.SubClassOf(a, f.Some(rr, a))
	r := New(tb, Options{})
	mustSat(t, r, a, true)
}

// TestGlobalCycleBlocking: ⊤ ⊑ ∃r.⊤ must terminate via blocking on every
// test.
func TestGlobalCycleBlocking(t *testing.T) {
	tb := dl.NewTBox("global")
	f := tb.Factory
	a := tb.Declare("A")
	rr := f.Role("r")
	tb.SubClassOf(f.Top(), f.Some(rr, f.Top()))
	r := New(tb, Options{})
	mustSat(t, r, a, true)
	mustSat(t, r, f.And(a, f.Not(a)), false)
}

func TestUnsatisfiableConceptViaTBox(t *testing.T) {
	tb := dl.NewTBox("unsat")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	tb.SubClassOf(a, b)
	tb.SubClassOf(a, f.Not(b))
	r := New(tb, Options{})
	mustSat(t, r, a, false)
	// Everything subsumes an unsatisfiable concept.
	mustSubs(t, r, b, a, true)
	mustSubs(t, r, f.Bottom(), a, true)
}

func TestRoleHierarchy(t *testing.T) {
	tb := dl.NewTBox("rh")
	f := tb.Factory
	a := tb.Declare("A")
	s, rr := f.Role("s"), f.Role("r")
	tb.SubObjectPropertyOf(s, rr)
	r := New(tb, Options{})
	// ∃s.A ⊓ ∀r.¬A: the s-edge is also an r-edge, so ¬A reaches A.
	mustSat(t, r, f.And(f.Some(s, a), f.All(rr, f.Not(a))), false)
	// The converse direction has no such propagation.
	mustSat(t, r, f.And(f.Some(rr, a), f.All(s, f.Not(a))), true)
}

func TestTransitiveRolePropagation(t *testing.T) {
	tb := dl.NewTBox("trans")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	rr := f.Role("r")
	tb.TransitiveObjectProperty(rr)
	r := New(tb, Options{})
	// ∃r.(B ⊓ ∃r.A) ⊓ ∀r.¬A: transitivity pushes ∀r.¬A down, clashing with
	// the nested A.
	deep := f.And(f.Some(rr, f.And(b, f.Some(rr, a))), f.All(rr, f.Not(a)))
	mustSat(t, r, deep, false)

	// Without transitivity the same concept is satisfiable.
	tb2 := dl.NewTBox("notrans")
	f2 := tb2.Factory
	a2, b2 := tb2.Declare("A"), tb2.Declare("B")
	rr2 := f2.Role("r")
	r2 := New(tb2, Options{})
	deep2 := f2.And(f2.Some(rr2, f2.And(b2, f2.Some(rr2, a2))), f2.All(rr2, f2.Not(a2)))
	mustSat(t, r2, deep2, true)
}

func TestTransitiveSubRole(t *testing.T) {
	// s transitive, s ⊑ r: ∀r.C must propagate along s-chains as ∀s.C.
	tb := dl.NewTBox("transsub")
	f := tb.Factory
	a := tb.Declare("A")
	s, rr := f.Role("s"), f.Role("r")
	tb.SubObjectPropertyOf(s, rr)
	tb.TransitiveObjectProperty(s)
	r := New(tb, Options{})
	deep := f.And(f.Some(s, f.Some(s, a)), f.All(rr, f.Not(a)))
	mustSat(t, r, deep, false)
}

func TestQualifiedCardinality(t *testing.T) {
	tb := dl.NewTBox("qcr")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	rr := f.Role("r")
	r := New(tb, Options{})
	mustSat(t, r, f.And(f.Min(3, rr, a), f.Max(2, rr, a)), false)
	mustSat(t, r, f.And(f.Min(2, rr, a), f.Max(3, rr, a)), true)
	mustSat(t, r, f.And(f.Min(2, rr, f.And(a, b)), f.Max(1, rr, a)), false)
	// Unqualified at-most via filler ⊤.
	mustSat(t, r, f.And(f.Min(2, rr, a), f.Max(1, rr, f.Top())), false)
	mustSat(t, r, f.Min(5, rr, a), true)
}

func TestMergeSatisfiable(t *testing.T) {
	tb := dl.NewTBox("merge")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	rr := f.Role("r")
	r := New(tb, Options{})
	// ∃r.A ⊓ ∃r.B ⊓ ≤1 r.⊤: the two successors merge into one A⊓B node.
	c := f.And(f.Some(rr, a), f.Some(rr, b), f.Max(1, rr, f.Top()))
	mustSat(t, r, c, true)

	// With Disjoint(A,B) the merge clashes and no model exists.
	tb2 := dl.NewTBox("merge2")
	f2 := tb2.Factory
	a2, b2 := tb2.Declare("A"), tb2.Declare("B")
	tb2.DisjointClasses(a2, b2)
	rr2 := f2.Role("r")
	r2 := New(tb2, Options{})
	c2 := f2.And(f2.Some(rr2, a2), f2.Some(rr2, b2), f2.Max(1, rr2, f2.Top()))
	mustSat(t, r2, c2, false)
}

func TestChooseRule(t *testing.T) {
	tb := dl.NewTBox("choose")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	rr := f.Role("r")
	r := New(tb, Options{})
	// ≤1 r.A ⊓ ∃r.B ⊓ ∃r.(¬B): two successors that cannot merge on B, so
	// at most one may satisfy A — still satisfiable by choosing ¬A.
	c := f.And(f.Max(1, rr, a), f.Some(rr, b), f.Some(rr, f.Not(b)))
	mustSat(t, r, c, true)
	// Forcing A on every r-successor then clashes with a second distinct one.
	c2 := f.And(f.Max(1, rr, a), f.All(rr, a), f.Some(rr, b), f.Some(rr, f.Not(b)))
	mustSat(t, r, c2, false)
}

func TestQCRWithTBoxDefinitions(t *testing.T) {
	// The bridg-style pattern of Table V: concepts constrained by several
	// QCRs over a shared role.
	tb := dl.NewTBox("qcrtbox")
	f := tb.Factory
	x, a, b := tb.Declare("X"), tb.Declare("A"), tb.Declare("B")
	rr := f.Role("r")
	tb.SubClassOf(x, f.Min(2, rr, a))
	tb.SubClassOf(x, f.Min(2, rr, b))
	tb.SubClassOf(x, f.Max(3, rr, f.Top()))
	tb.DisjointClasses(a, b)
	r := New(tb, Options{})
	// 2 A-successors + 2 B-successors, A,B disjoint so no cross-merge:
	// 4 distinct > 3 — unsatisfiable.
	mustSat(t, r, x, false)

	tb2 := dl.NewTBox("qcrtbox2")
	f2 := tb2.Factory
	x2, a2, b2 := tb2.Declare("X"), tb2.Declare("A"), tb2.Declare("B")
	rr2 := f2.Role("r")
	tb2.SubClassOf(x2, f2.Min(2, rr2, a2))
	tb2.SubClassOf(x2, f2.Min(2, rr2, b2))
	tb2.SubClassOf(x2, f2.Max(3, rr2, f2.Top()))
	r2 := New(tb2, Options{})
	// Without disjointness one A-successor can merge with a B-successor.
	mustSat(t, r2, x2, true)
}

func TestNodeBudget(t *testing.T) {
	tb := dl.NewTBox("budget")
	f := tb.Factory
	rr := f.Role("r")
	var cs []*dl.Concept
	for i := 0; i < 5; i++ {
		cs = append(cs, f.Some(rr, f.Name(string(rune('A'+i)))))
	}
	r := New(tb, Options{MaxNodes: 3})
	_, err := r.Sat(context.Background(), f.And(cs...))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestStatsCounters(t *testing.T) {
	tb := dl.NewTBox("stats")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	r := New(tb, Options{})
	if _, err := r.Subs(context.Background(), b, a); err != nil {
		t.Fatal(err)
	}
	if r.Stats().SubsTests.Load() != 1 || r.Stats().SatTests.Load() != 1 {
		t.Errorf("stats = %+v", r.Stats())
	}
	_ = f
}

// evalProp evaluates a role-free concept under a truth assignment.
func evalProp(c *dl.Concept, env map[string]bool) bool {
	switch c.Op {
	case dl.OpTop:
		return true
	case dl.OpBottom:
		return false
	case dl.OpName:
		return env[c.Name]
	case dl.OpNot:
		return !evalProp(c.Args[0], env)
	case dl.OpAnd:
		for _, a := range c.Args {
			if !evalProp(a, env) {
				return false
			}
		}
		return true
	case dl.OpOr:
		for _, a := range c.Args {
			if evalProp(a, env) {
				return true
			}
		}
		return false
	}
	panic("evalProp: non-propositional concept")
}

// randProp builds a random role-free concept over names A..D.
func randProp(f *dl.Factory, rng *rand.Rand, depth int) *dl.Concept {
	if depth <= 0 || rng.Intn(4) == 0 {
		return f.Name(string(rune('A' + rng.Intn(4))))
	}
	switch rng.Intn(3) {
	case 0:
		return f.Not(randProp(f, rng, depth-1))
	case 1:
		return f.And(randProp(f, rng, depth-1), randProp(f, rng, depth-1))
	default:
		return f.Or(randProp(f, rng, depth-1), randProp(f, rng, depth-1))
	}
}

// TestQuickPropositionalAgainstTruthTables cross-checks the tableau on
// random propositional concepts against exhaustive truth-table evaluation.
func TestQuickPropositionalAgainstTruthTables(t *testing.T) {
	tb := dl.NewTBox("prop")
	f := tb.Factory
	r := New(tb, Options{})
	names := []string{"A", "B", "C", "D"}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randProp(f, rng, 5)
		want := false
		for mask := 0; mask < 16; mask++ {
			env := map[string]bool{}
			for i, n := range names {
				env[n] = mask&(1<<i) != 0
			}
			if evalProp(c, env) {
				want = true
				break
			}
		}
		got, err := r.Sat(context.Background(), c)
		return err == nil && got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSubsumptionCoherence checks on random modal concepts that if
// C ⊑ D and C is satisfiable, then C ⊓ D is satisfiable too.
func TestQuickSubsumptionCoherence(t *testing.T) {
	tb := dl.NewTBox("coh")
	f := tb.Factory
	r := New(tb, Options{})
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randALC(f, rng, 3)
		d := randALC(f, rng, 3)
		subs, err := r.Subs(context.Background(), d, c)
		if err != nil {
			return true // budget blowups are acceptable here
		}
		if !subs {
			return true
		}
		satC, err1 := r.Sat(context.Background(), c)
		if err1 != nil {
			return true
		}
		if !satC {
			return true
		}
		both, err2 := r.Sat(context.Background(), f.And(c, d))
		return err2 == nil && both
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func randALC(f *dl.Factory, rng *rand.Rand, depth int) *dl.Concept {
	if depth <= 0 || rng.Intn(4) == 0 {
		return f.Name(string(rune('A' + rng.Intn(3))))
	}
	rr := f.Role("r")
	switch rng.Intn(5) {
	case 0:
		return f.Not(randALC(f, rng, depth-1))
	case 1:
		return f.And(randALC(f, rng, depth-1), randALC(f, rng, depth-1))
	case 2:
		return f.Or(randALC(f, rng, depth-1), randALC(f, rng, depth-1))
	case 3:
		return f.Some(rr, randALC(f, rng, depth-1))
	default:
		return f.All(rr, randALC(f, rng, depth-1))
	}
}

// TestConcurrentReasonerUse runs many satisfiability tests on the same
// Reasoner from multiple goroutines; run with -race to check sharing.
func TestConcurrentReasonerUse(t *testing.T) {
	tb := dl.NewTBox("conc")
	f := tb.Factory
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	rr := f.Role("r")
	tb.SubClassOf(a, f.Some(rr, b))
	tb.SubClassOf(b, c)
	r := New(tb, Options{})
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 50; i++ {
				got, err := r.Subs(context.Background(), f.Some(rr, c), a)
				if err != nil {
					done <- err
					return
				}
				if !got {
					done <- errors.New("A ⊑ ∃r.C not derived")
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
