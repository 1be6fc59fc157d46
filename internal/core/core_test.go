package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"parowl/internal/dl"
	"parowl/internal/el"
	"parowl/internal/ontogen"
	"parowl/internal/reasoner"
	"parowl/internal/tableau"
)

// exampleTBox builds the six-concept ontology used by the paper's running
// examples (3.1-3.3, 4.1): A ≡ ⊤ with B, C below A, E below B, and D, F
// below C.
func exampleTBox() *dl.TBox {
	tb := dl.NewTBox("example")
	f := tb.Factory
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	d, e, ff := tb.Declare("D"), tb.Declare("E"), tb.Declare("F")
	tb.EquivalentClasses(a, f.Top())
	tb.SubClassOf(b, a)
	tb.SubClassOf(c, a)
	tb.SubClassOf(e, b)
	tb.SubClassOf(d, c)
	tb.SubClassOf(ff, c)
	return tb
}

// newState returns the state of a fresh run, as ClassifyContext builds
// it when no snapshot is restored: stateFor's, with initSets' P and K.
func newState(t *dl.TBox, r reasoner.Interface, optimized bool) *state {
	s := stateFor(t, r, optimized)
	s.initSets()
	return s
}

func tableauFactory(t *dl.TBox) reasoner.Interface {
	return tableau.New(t, tableau.Options{})
}

func classify(t *testing.T, tb *dl.TBox, opts Options) *Result {
	t.Helper()
	if opts.Reasoner == nil {
		opts.Reasoner = tableauFactory(tb)
	}
	res, err := Classify(tb, opts)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	return res
}

// TestExample33Hierarchy reproduces the paper's Example 3.3: with
// K_A ⊇ {B,C,D,E,F}, K_B = {E}, K_C = {D,F}, the partial hierarchies must
// be H_A = {B,C}, H_B = {E}, H_C = {D,F}, with A ≡ ⊤ (Fig. 4).
func TestExample33Hierarchy(t *testing.T) {
	tb := exampleTBox()
	res := classify(t, tb, Options{Workers: 3})
	tax := res.Taxonomy
	f := tb.Factory
	a := f.Name("A")
	if tax.NodeOf(a) != tax.Top() {
		t.Fatalf("A should be equivalent to ⊤; node = %v", tax.NodeOf(a).Label())
	}
	wantChildren := map[string][]string{
		"A": {"B", "C"},
		"B": {"E"},
		"C": {"D", "F"},
	}
	for parent, kids := range wantChildren {
		pn := tax.NodeOf(f.Name(parent))
		var got []string
		for _, ch := range pn.Children() {
			if ch != tax.Bottom() {
				got = append(got, ch.Canonical().Name)
			}
		}
		if len(got) != len(kids) {
			t.Errorf("H_%s = %v, want %v", parent, got, kids)
			continue
		}
		for _, k := range kids {
			if !tax.IsAncestor(f.Name(parent), f.Name(k)) {
				t.Errorf("%s should be an ancestor of %s", parent, k)
			}
		}
	}
}

// TestExample32Schedule reproduces Example 3.2 / Table III structurally:
// with six groups and three workers, round-robin dispatch must assign
// groups 0,3 to worker 1, groups 1,4 to worker 2, groups 2,5 to worker 3.
func TestExample32Schedule(t *testing.T) {
	p := newPool(3, RoundRobin, new(atomic.Int64))
	defer p.close()
	var slots []int
	p.submitMu.Lock()
	for g := 0; g < 6; g++ {
		slots = append(slots, p.slotFor())
	}
	p.submitMu.Unlock()
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("slots = %v, want %v (Table III round-robin)", slots, want)
		}
	}
}

// TestStatsAndPruning checks the trace's counter accounting: the
// cycles' counter deltas add up to the run's Stats, counter by counter,
// and the per-worker steal records to Stats.Steals, under both policies
// with the cheap-first pipeline off and on, on the paper's example and on
// a partial-EL ontogen corpus, the latter also under a chaos plug-in so
// the degradation counters move. Async's epoch-boundary records are
// where a lost delta would hide.
func TestStatsAndPruning(t *testing.T) {
	p, ok := ontogen.ByName("rnao_functional")
	if !ok {
		t.Fatal("profile missing")
	}
	rnao, err := ontogen.Mini(p, 12).Generate(21)
	if err != nil {
		t.Fatal(err)
	}
	var degraded Stats // the degradation counters seen across chaos runs
	for _, tb := range []*dl.TBox{exampleTBox(), rnao} {
		for _, sched := range allSchedulings {
			for _, pipeline := range []bool{false, true} {
				for _, chaos := range []bool{false, true} {
					if chaos && tb != rnao {
						continue
					}
					name := fmt.Sprintf("%s %v pipeline=%v chaos=%v", tb.Name, sched, pipeline, chaos)
					opts := Options{
						Workers: 3, Mode: Optimized, Scheduling: sched, CollectTrace: true,
						RandomCycles: 2, ELPrepass: pipeline, ModelFilter: pipeline,
					}
					if chaos {
						opts.Reasoner = reasoner.NewChaos(tableauFactory(tb), reasoner.ChaosOptions{
							Seed: 7, PanicRate: 0.02, HangRate: 0.01, BudgetRate: 0.04,
						})
						opts.TestTimeout = 2 * time.Millisecond
					}
					res := classify(t, tb, opts)
					if !pipeline && res.Stats.SubsTests == 0 {
						t.Errorf("%s: no subsumption tests recorded", name)
					}
					if res.Trace == nil {
						t.Fatalf("%s: trace missing", name)
					}
					if res.Trace.InitialPossible == 0 {
						t.Errorf("%s: InitialPossible = 0", name)
					}
					cycles := res.Trace.Cycles
					if last := cycles[len(cycles)-1]; last.Phase != PhaseHierarchy {
						t.Errorf("%s: last cycle = %v, want hierarchy", name, last.Phase)
					}
					// All pairs resolved: the cycle before the two hierarchy
					// records must report 0 remaining.
					if grp := cycles[len(cycles)-3]; grp.RemainingPossible != 0 {
						t.Errorf("%s: remaining after %v cycle = %d", name, grp.Phase, grp.RemainingPossible)
					}
					var sum Stats
					for _, c := range cycles {
						sum.SatTests += c.SatTests
						sum.SubsTests += c.SubsTests
						sum.Pruned += c.Pruned
						sum.PreSeeded += c.PreSeeded
						sum.FilterHits += c.FilterHits
						sum.TimedOut += c.TimedOut
						sum.Recovered += c.Recovered
						sum.NodeBudget += c.NodeBudget
						sum.BranchBudget += c.BranchBudget
						sum.Steals += c.Stats.Steals
					}
					if sum != res.Stats {
						t.Errorf("%s: trace counters sum to %+v, Stats %+v", name, sum, res.Stats)
					}
					if got := res.Trace.TotalSteals(); got != res.Stats.Steals {
						t.Errorf("%s: trace per-worker steals %d, Stats.Steals %d", name, got, res.Stats.Steals)
					}
					degraded.TimedOut += sum.TimedOut
					degraded.Recovered += sum.Recovered
					degraded.NodeBudget += sum.NodeBudget
					degraded.BranchBudget += sum.BranchBudget
				}
			}
		}
	}
	if degraded.TimedOut == 0 || degraded.Recovered == 0 || degraded.NodeBudget == 0 || degraded.BranchBudget == 0 {
		t.Errorf("chaos runs left a degradation counter at zero: %+v", degraded)
	}
}

// TestOptimizedReducesTests checks the Section IV claim: pruning resolves
// pairs without testing, so optimized mode needs fewer reasoner calls
// than the full 2·C(n,2) symmetric budget.
func TestOptimizedReducesTests(t *testing.T) {
	tb := chainTBox(12)
	res := classify(t, tb, Options{Workers: 4, Mode: Optimized})
	n := int64(tb.NumNamed() + 1)
	full := n * (n - 1) // both directions of every pair
	if res.Stats.SubsTests >= full {
		t.Errorf("optimized used %d tests, full budget is %d", res.Stats.SubsTests, full)
	}
	if res.Stats.Pruned == 0 {
		t.Error("no pairs pruned on a 12-chain")
	}
}

// chainTBox builds A0 ⊒ A1 ⊒ ... ⊒ A(n-1).
func chainTBox(n int) *dl.TBox {
	tb := dl.NewTBox("chain")
	prev := tb.Declare("A0")
	for i := 1; i < n; i++ {
		c := tb.Declare(fmt.Sprintf("A%d", i))
		tb.SubClassOf(c, prev)
		prev = c
	}
	return tb
}

func TestAgainstBruteForceChain(t *testing.T) {
	tb := chainTBox(8)
	want, err := SequentialBruteForce(tb, tableauFactory(tb))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Basic, Optimized} {
		for _, w := range []int{1, 3, 8} {
			res := classify(t, tb, Options{Workers: w, Mode: mode, Seed: int64(w)})
			if !res.Taxonomy.Equal(want) {
				t.Errorf("mode=%v w=%d:\n got:\n%s\nwant:\n%s", mode, w,
					res.Taxonomy.Fingerprint(), want.Fingerprint())
			}
		}
	}
}

func TestUnsatisfiableConceptsGoToBottom(t *testing.T) {
	tb := dl.NewTBox("unsat")
	f := tb.Factory
	a, b, u := tb.Declare("A"), tb.Declare("B"), tb.Declare("U")
	tb.SubClassOf(u, a)
	tb.SubClassOf(u, f.Not(a))
	tb.SubClassOf(b, a)
	res := classify(t, tb, Options{Workers: 2})
	if res.Taxonomy.NodeOf(u) != res.Taxonomy.Bottom() {
		t.Error("U not classified as ⊥")
	}
	if !res.Taxonomy.IsAncestor(a, b) {
		t.Error("B ⊑ A lost")
	}
}

func TestEquivalenceDetection(t *testing.T) {
	tb := dl.NewTBox("equiv")
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	tb.EquivalentClasses(a, b)
	tb.SubClassOf(c, a)
	for _, mode := range []Mode{Basic, Optimized} {
		res := classify(t, tb, Options{Workers: 2, Mode: mode})
		if res.Taxonomy.NodeOf(a) != res.Taxonomy.NodeOf(b) {
			t.Errorf("mode=%v: A ≡ B not detected", mode)
		}
	}
}

// TestConcurrentPrunesKeepReachability replays the workers that resolved
// the pairs {S, m} for every member m of an equivalence class strictly
// below S, each holding its pair's claim while the others prune: one
// after the other in every order, then all at once from separate
// goroutines. The class's known K edges are mutual or a one-sided cycle
// (the first directions of pairs still being resolved, or a prepass
// half-seed). Every member must stay K-reachable from S: a pruneAfter
// that deletes K_S's edge to a member justified by a member whose own
// edge is already gone cuts S off from the class, and phase 3 then hangs
// the class under S's ancestors instead of under S.
func TestConcurrentPrunesKeepReachability(t *testing.T) {
	cases := []struct {
		name  string
		size  int
		edges [][2]int // {a, b}: b ∈ K[a], indices into the class
	}{
		{"pair", 2, [][2]int{{0, 1}, {1, 0}}},
		{"one-sided-3-cycle", 3, [][2]int{{0, 1}, {1, 2}, {2, 0}}},
		{"mutual-3", 3, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}}},
	}
	for _, tc := range cases {
		// setup returns a state in which S's resolvers hold their claims
		// and have recorded m ⊑ S, with S's row index and the members'.
		setup := func(t *testing.T) (*state, int, []int) {
			tb := dl.NewTBox("prune")
			sup := tb.Declare("S")
			members := make([]*dl.Concept, tc.size)
			for i := range members {
				members[i] = tb.Declare(fmt.Sprintf("M%d", i))
			}
			s := newState(tb, tableauFactory(tb), true)
			is, idx := s.index[sup], make([]int, tc.size)
			for i, m := range members {
				idx[i] = s.index[m]
				s.K[is].Set(idx[i])
				if !s.claimPair(is, idx[i]) {
					t.Fatal("fresh pair already claimed")
				}
			}
			for _, e := range tc.edges {
				s.K[idx[e[0]]].Set(idx[e[1]])
			}
			return s, is, idx
		}
		check := func(t *testing.T, s *state, is int, idx []int) {
			for i, m := range idx {
				if !kReaches(s, is, m) {
					t.Fatalf("S lost K-reachability to class member M%d", i)
				}
			}
		}
		for _, order := range permutations(tc.size) {
			t.Run(fmt.Sprintf("%s/%v", tc.name, order), func(t *testing.T) {
				s, is, idx := setup(t)
				for _, m := range order {
					s.pruneAfter(is, idx[m], new(Stats))
				}
				check(t, s, is, idx)
			})
		}
		t.Run(tc.name+"/goroutines", func(t *testing.T) {
			for round := 0; round < 200; round++ {
				s, is, idx := setup(t)
				var wg sync.WaitGroup
				for _, m := range idx {
					wg.Add(1)
					go func() {
						defer wg.Done()
						s.pruneAfter(is, m, new(Stats))
					}()
				}
				wg.Wait()
				check(t, s, is, idx)
			}
		})
	}
}

// kReaches reports whether to is reachable from from along K edges.
func kReaches(s *state, from, to int) bool {
	seen := map[int]bool{from: true}
	queue := []int{from}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == to {
			return true
		}
		s.K[x].ForEach(func(y int) bool {
			if !seen[y] {
				seen[y] = true
				queue = append(queue, y)
			}
			return true
		})
	}
	return false
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

func TestTopEquivalenceDetection(t *testing.T) {
	// Example 3.2 reports A ≡ ⊤: a concept equivalent to ⊤ must merge
	// with the root in both modes.
	tb := dl.NewTBox("topeq")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	tb.EquivalentClasses(a, f.Top())
	tb.SubClassOf(b, a)
	for _, mode := range []Mode{Basic, Optimized} {
		res := classify(t, tb, Options{Workers: 2, Mode: mode})
		if res.Taxonomy.NodeOf(a) != res.Taxonomy.Top() {
			t.Errorf("mode=%v: A ≡ ⊤ not detected", mode)
		}
	}
}

type failingReasoner struct {
	after int64
	calls atomic.Int64
}

func (f *failingReasoner) Sat(context.Context, *dl.Concept) (bool, error) { return true, nil }
func (f *failingReasoner) Subs(context.Context, *dl.Concept, *dl.Concept) (bool, error) {
	if f.calls.Add(1) > f.after {
		return false, errors.New("injected reasoner failure")
	}
	return false, nil
}

// TestReasonerFailurePropagates injects plug-in failures at various points
// and requires a clean error (no hang, no panic, no partial taxonomy).
func TestReasonerFailurePropagates(t *testing.T) {
	for _, after := range []int{0, 1, 5, 17} {
		tb := chainTBox(6)
		_, err := Classify(tb, Options{Reasoner: &failingReasoner{after: int64(after)}, Workers: 3})
		if err == nil {
			t.Fatalf("after=%d: no error returned", after)
		}
	}
}

func TestNoReasonerRejected(t *testing.T) {
	if _, err := Classify(chainTBox(3), Options{}); !errors.Is(err, ErrNoReasoner) {
		t.Fatalf("err = %v", err)
	}
}

// randomTaxonomyTBox builds a random DAG-shaped EL ontology with
// equivalences sprinkled in: the workload shape of the paper's corpora.
func randomTaxonomyTBox(rng *rand.Rand, n int) *dl.TBox {
	tb := dl.NewTBox("randtax")
	f := tb.Factory
	cs := make([]*dl.Concept, n)
	for i := range cs {
		cs[i] = tb.Declare(fmt.Sprintf("C%d", i))
	}
	for i := 1; i < n; i++ {
		// One or two told parents among the earlier concepts.
		for k := 0; k < 1+rng.Intn(2); k++ {
			tb.SubClassOf(cs[i], cs[rng.Intn(i)])
		}
	}
	if n > 3 && rng.Intn(2) == 0 {
		i := 1 + rng.Intn(n-1)
		tb.EquivalentClasses(cs[i], f.And(cs[rng.Intn(i)], cs[rng.Intn(i)]))
	}
	if n > 2 && rng.Intn(3) == 0 {
		// An unsatisfiable concept via disjointness.
		tb.DisjointClasses(cs[0], cs[1])
		u := tb.Declare("U")
		tb.SubClassOf(u, cs[0])
		tb.SubClassOf(u, cs[1])
	}
	return tb
}

// TestQuickMatchesBruteForce is the central correctness property: for
// random ontologies, every (mode, scheduling, pipeline, workers, seed)
// combination must produce exactly the brute-force taxonomy, which shares
// no code with the prepass or phase 3. The ontologies are pure EL, so
// with the pipeline on the prepass decides them completely. (Brute force
// never tests ⊤ ⊑ C, so randomELTBox's concept equivalent to ⊤ keeps that
// generator out of this check.)
func TestQuickMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTaxonomyTBox(rng, 4+rng.Intn(10))
		r := tableauFactory(tb)
		want, err := SequentialBruteForce(tb, r)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, mode := range []Mode{Basic, Optimized} {
			for _, sched := range allSchedulings {
				for _, pipeline := range []func(Options) Options{pipelineOff, pipelineOn} {
					w := 1 + rng.Intn(8)
					res, err := Classify(tb, pipeline(Options{
						Reasoner: r, Workers: w, Mode: mode,
						Scheduling: sched, Seed: seed, RandomCycles: 1 + rng.Intn(3),
					}))
					if err != nil {
						t.Logf("seed %d mode=%v: %v", seed, mode, err)
						return false
					}
					if !res.Taxonomy.Equal(want) {
						t.Logf("seed %d mode=%v sched=%v pipeline=%v w=%d:\n got:\n%s\nwant:\n%s",
							seed, mode, sched, pipeline(Options{}).ELPrepass, w,
							res.Taxonomy.Fingerprint(), want.Fingerprint())
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterministicAcrossSeeds: the taxonomy must not depend on the
// shuffle seed or worker count.
func TestQuickDeterministicAcrossSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := randomTaxonomyTBox(rng, 12)
	r := tableauFactory(tb)
	var first string
	for seed := int64(0); seed < 6; seed++ {
		res, err := Classify(tb, Options{Reasoner: r, Workers: int(seed%4) + 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fp := res.Taxonomy.Fingerprint()
		if first == "" {
			first = fp
		} else if fp != first {
			t.Fatalf("seed %d produced different taxonomy", seed)
		}
	}
}

// TestEnhancedTraversalMatches cross-validates the sequential baseline.
func TestEnhancedTraversalMatches(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTaxonomyTBox(rng, 4+rng.Intn(8))
		r := reasoner.NewCached(tableauFactory(tb))
		want, err := SequentialBruteForce(tb, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EnhancedTraversal(tb, r)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !got.Equal(want) {
			t.Logf("seed %d:\n got:\n%s\nwant:\n%s", seed, got.Fingerprint(), want.Fingerprint())
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWithELReasonerPlugin runs the parallel classifier with the EL
// saturation plug-in — the architecture's "any reasoner as plug-in"
// claim — and checks agreement with the tableau-backed run.
func TestWithELReasonerPlugin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := randomTaxonomyTBox(rng, 15)
	elr, err := el.New(tb, el.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	resEL := classify(t, tb, Options{Reasoner: elr, Workers: 4})
	resTab := classify(t, tb, Options{Workers: 4})
	if !resEL.Taxonomy.Equal(resTab.Taxonomy) {
		t.Errorf("EL plug-in disagrees with tableau plug-in:\n%s\nvs\n%s",
			resEL.Taxonomy.Fingerprint(), resTab.Taxonomy.Fingerprint())
	}
}

// TestWithOracle runs the classifier against the oracle plug-in, which the
// scalability experiments use.
func TestWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tb := randomTaxonomyTBox(rng, 20)
	oracle := reasoner.NewOracle(tb, reasoner.OracleOptions{})
	res := classify(t, tb, Options{Reasoner: oracle, Workers: 4, CollectTrace: true})
	want, err := SequentialBruteForce(tb, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Taxonomy.Equal(want) {
		t.Error("oracle-backed classification diverges from brute force")
	}
}

func TestSplitGroups(t *testing.T) {
	seq := []int{0, 1, 2, 3, 4, 5, 6}
	gs := splitGroups(seq, 3)
	if len(gs) != 3 {
		t.Fatalf("groups = %d", len(gs))
	}
	total := 0
	for _, g := range gs {
		total += len(g)
		if len(g) < 2 || len(g) > 3 {
			t.Errorf("group size %d not near-equal", len(g))
		}
	}
	if total != len(seq) {
		t.Errorf("groups cover %d of %d", total, len(seq))
	}
	if gs2 := splitGroups(seq, 100); len(gs2) != len(seq) {
		t.Errorf("oversubscribed split = %d groups", len(gs2))
	}
	if gs3 := splitGroups(nil, 3); len(gs3) != 0 {
		t.Errorf("empty split = %v", gs3)
	}
}

// TestExample31RandomDivision mirrors the paper's Example 3.1: in basic
// mode, a random-division cycle with three workers over six concepts
// splits into three groups of two and tests exactly one directed pair per
// group.
func TestExample31RandomDivision(t *testing.T) {
	tb := exampleTBox()
	res := classify(t, tb, Options{
		Workers: 3, Mode: Basic, RandomCycles: 1, Seed: 1, CollectTrace: true,
	})
	first := res.Trace.Cycles[0]
	if first.Phase != PhaseRandom {
		t.Fatalf("first cycle = %v", first.Phase)
	}
	// 7 nodes (6 named + ⊤) split over 3 workers → groups of sizes
	// 3/2/2 → 3 + 1 + 1 directed pair tests, minus any answered by the
	// pre-seeded K_⊤ entries (none: those are claimed up front, and the
	// directed pairs here are distinct orderings).
	if got := len(first.Tasks); got != 3 {
		t.Errorf("groups = %d, want 3", got)
	}
	if first.SubsTests != 5 {
		t.Errorf("cycle-1 tests = %d, want 5 (3+1+1 directed pairs)", first.SubsTests)
	}
}

// TestExample41SymmetricTesting mirrors Example 4.1: optimized mode tests
// each claimed pair in both directions and prunes follow-up pairs via the
// known sets, so the full run needs fewer tests than the exhaustive
// 2·C(n,2) budget.
func TestExample41SymmetricTesting(t *testing.T) {
	tb := exampleTBox()
	res := classify(t, tb, Options{
		Workers: 3, Mode: Optimized, RandomCycles: 2, Seed: 1, CollectTrace: true,
	})
	first := res.Trace.Cycles[0]
	if first.SubsTests%2 != 0 {
		t.Errorf("cycle-1 tests = %d, want an even count (symmetric tests)", first.SubsTests)
	}
	if res.Stats.Pruned == 0 {
		t.Error("no pairs pruned on the example hierarchy")
	}
	n := int64(tb.NumNamed() + 1)
	if full := n * (n - 1); res.Stats.SubsTests >= full {
		t.Errorf("optimized run used %d tests, exhaustive budget is %d", res.Stats.SubsTests, full)
	}
	// The example's A ≡ ⊤ must be discovered (Example 3.2's result).
	if res.Taxonomy.NodeOf(tb.Factory.Name("A")) != res.Taxonomy.Top() {
		t.Error("A ≡ ⊤ not discovered")
	}
}

// TestNewStateFill checks initSets' word-level fills against the paper's
// initialization done bit by bit: P_x = {y > x} in optimized mode and
// every y ≠ x in basic mode, K_⊤ = every named concept, and in basic mode
// each (⊤, X) entry claimed up front, so P_⊤ is empty. Sizes n (⊤
// included) end inside, at and just past 64-bit words.
func TestNewStateFill(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 129} {
		tb := dl.NewTBox("fill")
		for i := 0; i < n-1; i++ {
			tb.Declare(fmt.Sprintf("C%d", i))
		}
		for _, optimized := range []bool{true, false} {
			s := newState(tb, tableauFactory(tb), optimized)
			if s.n != n {
				t.Fatalf("n = %d, want %d", s.n, n)
			}
			top := n - 1
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					wantP := y > x
					if !optimized {
						wantP = y != x && x != top
					}
					if got := s.P[x].Test(y); got != wantP {
						t.Fatalf("n=%d optimized=%v: P[%d] bit %d = %v, want %v", n, optimized, x, y, got, wantP)
					}
					wantK := x == top && y != top
					if got := s.K[x].Test(y); got != wantK {
						t.Fatalf("n=%d optimized=%v: K[%d] bit %d = %v, want %v", n, optimized, x, y, got, wantK)
					}
				}
			}
		}
	}
}
