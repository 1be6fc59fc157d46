package tableau

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"parowl/internal/dl"
)

// checkSolverReset asserts the reset-before-reuse invariant: after
// resetForReuse, nothing from the previous test is reachable through the
// solver's slabs.
func checkSolverReset(t *testing.T, s *solver) {
	t.Helper()
	if s.nodeUsed != 0 || s.graphUsed != 0 {
		t.Fatalf("used counters not reset: nodes=%d graphs=%d", s.nodeUsed, s.graphUsed)
	}
	if s.g != nil {
		t.Fatal("solver still holds a graph")
	}
	if s.nextBranch != 0 || s.created != 0 {
		t.Fatalf("per-test counters not reset: branch=%d created=%d", s.nextBranch, s.created)
	}
	for i, n := range s.nodeSlab {
		if n.label.len() != 0 {
			t.Fatalf("node %d leaks %d label entries", i, n.label.len())
		}
		if len(n.edgeRoles) != 0 || len(n.edgeDeps) != 0 {
			t.Fatalf("node %d leaks edge roles", i)
		}
		if len(n.children) != 0 || len(n.minApplied) != 0 {
			t.Fatalf("node %d leaks children or ≥-markers", i)
		}
		if n.pruned || n.epoch != 0 || n.id != 0 || n.parent != 0 {
			t.Fatalf("node %d scalar state not reset", i)
		}
		for j, k := range n.label.keys {
			if k != 0 {
				t.Fatalf("node %d label bucket %d not cleared", i, j)
			}
		}
	}
	for i, g := range s.graphSlab {
		if len(g.nodes) != 0 {
			t.Fatalf("graph %d leaks %d nodes", i, len(g.nodes))
		}
		if len(g.distinct) != 0 {
			t.Fatalf("graph %d leaks %d inequalities", i, len(g.distinct))
		}
		if g.epoch != 0 {
			t.Fatalf("graph %d epoch not reset", i)
		}
	}
	if a := &s.arena; a.off != 0 || len(a.used) != 0 {
		t.Fatalf("dep arena not reset: off=%d used=%d", a.off, len(a.used))
	}
}

// randomConcept builds a random ALCHQ concept over the given names/roles.
func randomConcept(rng *rand.Rand, f *dl.Factory, names []*dl.Concept, roles []*dl.Role, depth int) *dl.Concept {
	if depth <= 0 || rng.Intn(3) == 0 {
		c := names[rng.Intn(len(names))]
		if rng.Intn(2) == 0 {
			return f.Not(c)
		}
		return c
	}
	sub := func() *dl.Concept { return randomConcept(rng, f, names, roles, depth-1) }
	r := roles[rng.Intn(len(roles))]
	switch rng.Intn(6) {
	case 0:
		return f.And(sub(), sub())
	case 1:
		return f.Or(sub(), sub())
	case 2:
		return f.Some(r, sub())
	case 3:
		return f.All(r, sub())
	case 4:
		return f.Min(1+rng.Intn(3), r, sub())
	default:
		return f.Max(rng.Intn(3), r, sub())
	}
}

// TestPooledSolverResetInvariant is the property test behind the arena:
// whatever a random satisfiability test did to the solver — branching,
// merging, node generation, inequalities — a recycled solver must be
// indistinguishable from a fresh one, both structurally (no leaked
// labels/edges) and semantically (same answers as an unpooled run).
func TestPooledSolverResetInvariant(t *testing.T) {
	tb := dl.NewTBox("arena-prop")
	f := tb.Factory
	var names []*dl.Concept
	for i := 0; i < 8; i++ {
		names = append(names, tb.Declare(fmt.Sprintf("A%d", i)))
	}
	roles := []*dl.Role{f.Role("r"), f.Role("s")}
	tb.SubObjectPropertyOf(roles[1], roles[0])
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 6; i++ {
		tb.SubClassOf(names[rng.Intn(len(names))], randomConcept(rng, f, names, roles, 2))
	}
	r := New(tb, Options{})
	fresh := New(tb, Options{}) // answers reference queries with cold solvers

	s := r.acquireSolver()
	for i := 0; i < 300; i++ {
		c := randomConcept(rng, f, names, roles, 3)
		s.start(c)
		sat, _, err := s.solve()
		if err != nil {
			t.Fatal(err)
		}
		s.resetForReuse()
		checkSolverReset(t, s)
		want, err := fresh.Sat(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if sat != want {
			t.Fatalf("test %d: pooled solver says sat=%v, fresh reasoner says %v for %s", i, sat, want, c)
		}
	}
	r.releaseSolver(s)
}

// TestSolverPoolStats checks that the reuse counters reflect pooling.
func TestSolverPoolStats(t *testing.T) {
	tb := dl.NewTBox("pool-stats")
	a := tb.Declare("A")
	b := tb.Declare("B")
	tb.SubClassOf(a, tb.Factory.Some(tb.Factory.Role("r"), b))
	r := New(tb, Options{})
	for i := 0; i < 50; i++ {
		if _, err := r.Sat(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.SolversAllocated.Load() < 1 {
		t.Error("no solver allocation recorded")
	}
	if st.SolversReused.Load() == 0 {
		t.Error("sequential tests never reused a solver")
	}
	if st.NodesReused.Load() == 0 {
		t.Error("no node reuse recorded")
	}
	if st.Nodes.Load() == 0 {
		t.Error("no nodes counted")
	}
}
