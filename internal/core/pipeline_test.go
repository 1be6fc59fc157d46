package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"parowl/internal/bitset"
	"parowl/internal/dl"
	"parowl/internal/el"
	"parowl/internal/ontogen"
	"parowl/internal/reasoner"
	"parowl/internal/tableau"
)

// pipelineOpts returns the cheap-first pipeline configuration under test
// paired with the plain configuration it must be indistinguishable from.
func pipelineOn(o Options) Options  { o.ELPrepass = true; o.ModelFilter = true; return o }
func pipelineOff(o Options) Options { o.ELPrepass = false; o.ModelFilter = false; return o }

// randomMixedTBox builds a random ontology that is deliberately NOT
// EL-expressible: an EL DAG backbone plus value restrictions, negated
// right sides, disjointness and an occasional concept that is satisfiable
// in the EL fragment but unsatisfiable in the full TBox — the exact shape
// that would expose an unsound prepass transfer.
func randomMixedTBox(rng *rand.Rand, n int) *dl.TBox {
	tb := dl.NewTBox("randmixed")
	f := tb.Factory
	r := f.Role("r")
	cs := make([]*dl.Concept, n)
	for i := range cs {
		cs[i] = tb.Declare(fmt.Sprintf("C%d", i))
	}
	for i := 1; i < n; i++ {
		parent := cs[rng.Intn(i)]
		switch rng.Intn(5) {
		case 0: // conjunctive right side with a non-EL conjunct → weakened
			tb.SubClassOf(cs[i], f.And(parent, f.All(r, cs[rng.Intn(n)])))
		case 1: // existential chain (EL, exercises role successors)
			tb.SubClassOf(cs[i], f.Some(r, parent))
			tb.SubClassOf(f.Some(r, parent), parent)
		case 2: // negated right side → dropped from the fragment
			j := rng.Intn(n)
			if cs[j] != parent {
				tb.SubClassOf(cs[i], f.Not(cs[j]))
			}
			tb.SubClassOf(cs[i], parent)
		default: // plain EL edge
			tb.SubClassOf(cs[i], parent)
		}
	}
	if n > 3 && rng.Intn(2) == 0 {
		i := 1 + rng.Intn(n-1)
		tb.EquivalentClasses(cs[i], f.And(cs[rng.Intn(i)], cs[rng.Intn(i)]))
	}
	if n > 4 && rng.Intn(2) == 0 {
		// Satisfiable in the EL fragment, unsatisfiable in the full TBox:
		// the ¬C1 conjunct is dropped during fragment extraction, so only
		// the real sat?() sweep can place U correctly.
		u := tb.Declare("U")
		tb.SubClassOf(u, f.And(cs[1], f.Not(cs[1])))
		tb.SubClassOf(u, cs[2])
	}
	return tb
}

// randomELTBox builds a random ontology inside the EL fragment, so its
// fragment is complete and the prepass decides every test: told edges,
// existential restrictions on both sides of ⊑ over a role hierarchy
// r ⊑ s with s transitive, a defined class, a concept made unsatisfiable
// by disjointness and a concept equivalent to ⊤. Existential fillers are
// earlier concepts and the general GCIs (∃ on the left, the defined
// class's ⊒ half) are few, which keeps the tableau baseline fast.
func randomELTBox(rng *rand.Rand, n int) *dl.TBox {
	tb := dl.NewTBox("randel")
	f := tb.Factory
	r, s := f.Role("r"), f.Role("s")
	tb.SubObjectPropertyOf(r, s)
	tb.TransitiveObjectProperty(s)
	roles := []*dl.Role{r, s}
	cs := make([]*dl.Concept, n)
	for i := range cs {
		cs[i] = tb.Declare(fmt.Sprintf("C%d", i))
	}
	general := 0
	for i := 1; i < n; i++ {
		parent, filler := cs[rng.Intn(i)], cs[rng.Intn(i)]
		role := roles[rng.Intn(len(roles))]
		switch k := rng.Intn(4); {
		case k == 0: // existential right side: successors feed the rules below
			tb.SubClassOf(cs[i], parent)
			tb.SubClassOf(cs[i], f.Some(role, filler))
		case k == 1 && general < 2: // existential left side, reached through r ⊑ s and transitivity
			general++
			tb.SubClassOf(cs[i], parent)
			tb.SubClassOf(f.Some(s, filler), cs[i])
		case k == 2 && general < 2: // defined class
			general++
			tb.EquivalentClasses(cs[i], f.And(parent, f.Some(role, filler)))
		default:
			tb.SubClassOf(cs[i], parent)
		}
	}
	// C0 is never below another concept, so ⊤ ⊑ C0 makes it ≡ ⊤ without
	// making ⊤ unsatisfiable.
	tb.SubClassOf(f.Top(), cs[0])
	if a, b := cs[1+rng.Intn(n-1)], cs[1+rng.Intn(n-1)]; a != b {
		tb.DisjointClasses(a, b)
		tb.SubClassOf(tb.Declare("U"), f.And(a, b))
	}
	return tb
}

// TestQuickPipelineEquivalence is the central safety property of the
// cheap-first pipeline: for random ontologies — pure-EL taxonomy shapes,
// mixed ALC shapes where the fragment is partial, and EL shapes with
// roles whose complete fragment decides everything — enabling
// ELPrepass+ModelFilter must produce the byte-identical taxonomy to the
// pipeline-off run for every (mode, scheduling, workers, seed)
// combination. On the complete-fragment shapes the pipeline-on run must
// not call the plug-in at all.
func TestQuickPipelineEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, tb := range []*dl.TBox{
			randomTaxonomyTBox(rng, 4+rng.Intn(10)),
			randomMixedTBox(rng, 5+rng.Intn(10)),
			randomELTBox(rng, 4+rng.Intn(8)),
		} {
			_, cov := el.NewFragment(tb, el.Options{})
			r := tableauFactory(tb)
			for _, mode := range []Mode{Basic, Optimized} {
				for _, sched := range allSchedulings {
					w := 1 + rng.Intn(8)
					base := Options{
						Reasoner: r, Workers: w, Mode: mode, Scheduling: sched,
						Seed: seed, RandomCycles: 1 + rng.Intn(3),
					}
					off, err := Classify(tb, pipelineOff(base))
					if err != nil {
						t.Logf("seed %d off: %v", seed, err)
						return false
					}
					var calls reasoner.Stats
					base.Reasoner = reasoner.Counting{R: r, S: &calls}
					on, err := Classify(tb, pipelineOn(base))
					if err != nil {
						t.Logf("seed %d on: %v", seed, err)
						return false
					}
					if on.Taxonomy.Render() != off.Taxonomy.Render() {
						t.Logf("seed %d %s mode=%v sched=%v w=%d:\n on:\n%s\n off:\n%s",
							seed, tb.Name, mode, sched, w, on.Taxonomy.Render(), off.Taxonomy.Render())
						return false
					}
					if cov.Complete() {
						n := calls.SatCalls.Load() + calls.SubsCalls.Load()
						if n != 0 || on.Stats.SatTests+on.Stats.SubsTests+on.Stats.FilterHits != 0 {
							t.Logf("seed %d %s mode=%v sched=%v: complete fragment, yet %d plug-in calls (stats %+v)",
								seed, tb.Name, mode, sched, n, on.Stats)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// fragmentUnknowns counts the named concepts the prepass leaves to a sat?
// probe: those a partial EL fragment does not prove unsatisfiable.
func fragmentUnknowns(t *testing.T, tb *dl.TBox) int64 {
	t.Helper()
	frag, cov := el.NewFragment(tb, el.Options{})
	if cov.Complete() {
		t.Fatalf("%s: test needs a partial fragment", tb.Name)
	}
	n := int64(len(tb.NamedConcepts()))
	if err := frag.Seeds(context.Background(), func(int) { n-- }, func(int, *bitset.Set) {}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPipelineEquivalenceOntogen runs the same identity check on scaled
// paper corpora: a pure-EL Table IV profile (complete fragment, filter
// active) and a QCR-heavy Table V profile (partial fragment, prepass must
// stay sound while dropping most axioms).
func TestPipelineEquivalenceOntogen(t *testing.T) {
	if testing.Short() {
		t.Skip("ontogen corpora are slow under -short")
	}
	corpora := []struct {
		profile string
		scale   int
	}{
		{"actpathway.obo", 80},
		{"rnao_functional", 12},
	}
	for _, c := range corpora {
		c := c
		t.Run(c.profile, func(t *testing.T) {
			p, ok := ontogen.ByName(c.profile)
			if !ok {
				t.Fatalf("profile %q not found", c.profile)
			}
			for _, seed := range []int64{1, 2} {
				tb, err := ontogen.Mini(p, c.scale).Generate(seed)
				if err != nil {
					t.Fatalf("generate seed %d: %v", seed, err)
				}
				r := tableauFactory(tb)
				want := classify(t, tb, pipelineOff(Options{Reasoner: r, Workers: 2, Seed: seed}))
				for _, mode := range []Mode{Basic, Optimized} {
					for _, w := range []int{1, 3, 8} {
						res := classify(t, tb, pipelineOn(Options{
							Reasoner: r, Workers: w, Mode: mode, Seed: seed,
						}))
						if res.Taxonomy.Render() != want.Taxonomy.Render() {
							t.Fatalf("seed %d mode=%v w=%d: pipeline-on taxonomy differs\n on:\n%s\n off:\n%s",
								seed, mode, w, res.Taxonomy.Render(), want.Taxonomy.Render())
						}
					}
				}
			}
		})
	}
}

// TestPipelineReducesCalls checks the headline acceptance criterion with
// the tableau plug-in, at an identical taxonomy. actpathway is pure EL:
// its complete fragment decides every test in the prepass, so the plug-in
// sees no call at all. rnao_functional's fragment is partial: there the
// model filter must disprove non-subsumptions and the pipeline must still
// cut the plug-in's sat?+subs? dispatches by at least 30%.
func TestPipelineReducesCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("ontogen corpora are slow under -short")
	}
	for _, c := range []struct {
		profile  string
		scale    int
		complete bool
	}{
		{"actpathway.obo", 80, true},
		{"rnao_functional", 12, false},
	} {
		t.Run(c.profile, func(t *testing.T) {
			p, ok := ontogen.ByName(c.profile)
			if !ok {
				t.Fatal("profile missing")
			}
			tb, err := ontogen.Mini(p, c.scale).Generate(7)
			if err != nil {
				t.Fatal(err)
			}
			run := func(opts Options) (*Result, int64) {
				var stats reasoner.Stats
				opts.Reasoner = reasoner.Counting{R: tableauFactory(tb), S: &stats}
				res := classify(t, tb, opts)
				return res, stats.SatCalls.Load() + stats.SubsCalls.Load()
			}
			base := Options{Workers: 4, Mode: Optimized, Seed: 11}
			off, offCalls := run(pipelineOff(base))
			on, onCalls := run(pipelineOn(base))
			if on.Taxonomy.Render() != off.Taxonomy.Render() {
				t.Fatalf("taxonomies differ:\n on:\n%s\n off:\n%s", on.Taxonomy.Render(), off.Taxonomy.Render())
			}
			if on.Stats.PreSeeded == 0 {
				t.Error("PreSeeded = 0; EL prepass resolved nothing")
			}
			if offCalls == 0 {
				t.Fatal("baseline made no plug-in calls")
			}
			reduction := 100 * float64(offCalls-onCalls) / float64(offCalls)
			t.Logf("plug-in calls: off=%d on=%d reduction=%.1f%% preseeded=%d filterhits=%d",
				offCalls, onCalls, reduction, on.Stats.PreSeeded, on.Stats.FilterHits)
			if c.complete {
				if onCalls != 0 || on.Stats.FilterHits != 0 {
					t.Errorf("complete fragment, yet %d plug-in calls and %d filter hits", onCalls, on.Stats.FilterHits)
				}
				return
			}
			if on.Stats.FilterHits == 0 {
				t.Error("FilterHits = 0; model filter never disproved a non-subsumption")
			}
			if reduction < 30 {
				t.Errorf("pipeline reduced plug-in calls by %.1f%%, want >= 30%%", reduction)
			}
		})
	}
}

// TestPrepassFragmentUnsatConcept pins the subtle hazard the prepass
// sat-sweep exists for: a concept whose EL fragment is satisfiable but
// whose full TBox is not. Seeded K bits alone would let pruning claim all
// its pairs without any test touching it; the sweep's real sat?() probe
// must still discover the unsatisfiability.
func TestPrepassFragmentUnsatConcept(t *testing.T) {
	tb := dl.NewTBox("fragunsat")
	f := tb.Factory
	a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
	u := tb.Declare("U")
	tb.SubClassOf(b, a)
	tb.SubClassOf(c, b)
	// Fragment keeps U ⊑ B (the ¬B conjunct is weakened away), so the
	// prepass seeds U ⊑ B and U ⊑ A while the full TBox makes U unsat.
	tb.SubClassOf(u, f.And(b, f.Not(b)))
	r := tableauFactory(tb)
	for _, mode := range []Mode{Basic, Optimized} {
		off := classify(t, tb, pipelineOff(Options{Reasoner: r, Workers: 2, Mode: mode}))
		on := classify(t, tb, pipelineOn(Options{Reasoner: r, Workers: 2, Mode: mode}))
		if on.Taxonomy.Render() != off.Taxonomy.Render() {
			t.Fatalf("mode=%v: taxonomies differ\n on:\n%s\n off:\n%s",
				mode, on.Taxonomy.Render(), off.Taxonomy.Render())
		}
		if on.Taxonomy.NodeOf(u) != on.Taxonomy.Bottom() {
			t.Fatalf("mode=%v: U should be unsatisfiable (≡ ⊥); taxonomy:\n%s",
				mode, on.Taxonomy.Render())
		}
	}
}

// TestPrepassCountersExample pins the prepass bookkeeping. The paper's
// running example is pure EL, so its complete fragment decides every
// test: the plug-in sees no call, and each settled sat? probe (⊤ is
// pinned satisfiable, never probed) and each directed test of each pair
// counts once in PreSeeded. One non-EL axiom makes the fragment partial:
// the plug-in's sat? load is then exactly one sweep probe per concept
// the fragment did not prove unsatisfiable, and its subs? load shrinks to
// the directions the fragment cannot decide.
func TestPrepassCountersExample(t *testing.T) {
	run := func(tb *dl.TBox, prepass bool) (*Result, *reasoner.Stats) {
		var stats reasoner.Stats
		r := reasoner.Counting{R: tableauFactory(tb), S: &stats}
		res := classify(t, tb, Options{
			Reasoner: r, Workers: 3, ELPrepass: prepass, CollectTrace: true,
		})
		return res, &stats
	}
	same := func(on, off *Result) {
		t.Helper()
		if on.Taxonomy.Render() != off.Taxonomy.Render() {
			t.Fatalf("taxonomies differ\n on:\n%s\n off:\n%s",
				on.Taxonomy.Render(), off.Taxonomy.Render())
		}
		if on.Trace == nil || len(on.Trace.Cycles) == 0 || on.Trace.Cycles[0].Phase != PhasePrepass {
			t.Fatalf("trace should start with a prepass cycle: %v", on.Trace)
		}
	}

	tb := exampleTBox()
	off, _ := run(tb, false)
	on, onStats := run(tb, true)
	same(on, off)
	if calls := onStats.SatCalls.Load() + onStats.SubsCalls.Load(); calls != 0 {
		t.Errorf("complete fragment, yet %d plug-in calls", calls)
	}
	n := int64(len(tb.NamedConcepts())) + 1 // with ⊤
	if got, want := on.Stats.PreSeeded, (n-1)+n*(n-1); got != want {
		t.Errorf("PreSeeded = %d, want %d (every sat? probe and both directions of every pair)", got, want)
	}
	for _, res := range []*Result{on, off} {
		if got, want := res.Trace.InitialPossible, n*(n-1)/2; got != want {
			t.Errorf("InitialPossible = %d, want %d (every pair, ⊤'s included)", got, want)
		}
	}

	partial := exampleTBox()
	f := partial.Factory
	partial.SubClassOf(f.Name("D"), f.All(f.Role("r"), f.Name("E")))
	off, offStats := run(partial, false)
	on, onStats = run(partial, true)
	same(on, off)
	if got, want := on.Trace.InitialPossible, n*(n-1)/2; got != want {
		t.Errorf("partial fragment: InitialPossible = %d, want %d", got, want)
	}
	if on.Stats.PreSeeded == 0 {
		t.Error("PreSeeded = 0 on an ontology whose told hierarchy is EL")
	}
	if got, want := onStats.SatCalls.Load(), fragmentUnknowns(t, partial); got != want {
		t.Errorf("plug-in sat? calls = %d, want %d (one sweep probe per concept not proven unsatisfiable)", got, want)
	}
	if onStats.SubsCalls.Load() >= offStats.SubsCalls.Load() {
		t.Errorf("prepass did not reduce subs? calls: on=%d off=%d",
			onStats.SubsCalls.Load(), offStats.SubsCalls.Load())
	}
}

// TestPipelineWithELPlugin runs the pipeline with the EL reasoner itself
// as the plug-in, crossing the prepass's fragment saturation against the
// plug-in's own.
func TestPipelineWithELPlugin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10; i++ {
		tb := randomTaxonomyTBox(rng, 5+rng.Intn(10))
		r, err := el.New(tb, el.Options{Workers: 2})
		if err != nil {
			t.Fatalf("iteration %d: el.New: %v", i, err)
		}
		off := classify(t, tb, pipelineOff(Options{Reasoner: r, Workers: 3}))
		on := classify(t, tb, pipelineOn(Options{Reasoner: r, Workers: 3}))
		if !on.Taxonomy.Equal(off.Taxonomy) {
			t.Fatalf("iteration %d: taxonomies differ\n on:\n%s\n off:\n%s",
				i, on.Taxonomy.Render(), off.Taxonomy.Render())
		}
	}
}

// TestCachedFilterIntegration checks the decorator chain end to end: the
// tableau's RowFilter capability must be found through a Cached
// decorator, its rows must settle tests, and the pipeline must classify
// identically through it.
func TestCachedFilterIntegration(t *testing.T) {
	tb := randomMixedTBox(rand.New(rand.NewSource(9)), 12)
	r := reasoner.NewCached(tableau.New(tb, tableau.Options{}))
	if reasoner.AsRowFilter(r) == nil {
		t.Fatal("Cached(tableau) hides the RowFilter capability")
	}
	off := classify(t, tb, pipelineOff(Options{Reasoner: r, Workers: 4}))
	on := classify(t, tb, pipelineOn(Options{Reasoner: r, Workers: 4}))
	if on.Taxonomy.Render() != off.Taxonomy.Render() {
		t.Fatalf("taxonomies differ\n on:\n%s\n off:\n%s",
			on.Taxonomy.Render(), off.Taxonomy.Render())
	}
	if on.Stats.FilterHits == 0 {
		t.Error("no filter hits through Cached")
	}
}

// faultyRows wraps the tableau with a row filter that misbehaves on cue:
// with indexPanics FilterRows panics before indexing, and onRow runs
// after each real row is filled, so a panic there must discard a row that
// is already complete. rows counts the rows asked for.
type faultyRows struct {
	*tableau.Reasoner
	indexPanics bool
	onRow       func(x int)
	rows        *atomic.Int64
}

func (f faultyRows) FilterRows(ctx context.Context, cs []*dl.Concept) func(int, *bitset.Set) {
	if f.indexPanics {
		panic("faulty index")
	}
	row := f.Reasoner.FilterRows(ctx, cs)
	return func(x int, out *bitset.Set) {
		f.rows.Add(1)
		row(x, out)
		f.onRow(x)
	}
}

// TestRowFilterFaults: the model filter is advisory. A row filter that
// panics — while indexing, in every row, or in every other row — costs
// only the rows it loses: with and without the EL prepass, in both
// modes, the run completes with the pipeline-off taxonomy and no
// undecided test, and a run that lost every row has no filter hit. A
// context cancelled mid-build fails the run with the context error.
func TestRowFilterFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		tb := randomMixedTBox(rng, 8+rng.Intn(8))
		r := tableau.New(tb, tableau.Options{})
		off := classify(t, tb, pipelineOff(Options{Reasoner: r, Workers: 3}))
		var rows atomic.Int64
		for _, fault := range []struct {
			name string
			f    faultyRows
			lost bool
		}{
			{"index", faultyRows{Reasoner: r, indexPanics: true, rows: &rows}, true},
			{"every row", faultyRows{Reasoner: r, onRow: func(int) { panic("faulty row") }, rows: &rows}, true},
			{"odd rows", faultyRows{Reasoner: r, onRow: func(x int) {
				if x%2 == 1 {
					panic("faulty row")
				}
			}, rows: &rows}, false},
		} {
			for _, prepass := range []bool{false, true} {
				for _, mode := range []Mode{Basic, Optimized} {
					rows.Store(0)
					res := classify(t, tb, Options{Reasoner: fault.f, Workers: 3, Mode: mode, ELPrepass: prepass, ModelFilter: true})
					where := fmt.Sprintf("tbox %d, %s fault, prepass=%v, mode=%v", i, fault.name, prepass, mode)
					if res.Taxonomy.Render() != off.Taxonomy.Render() {
						t.Fatalf("%s: taxonomy differs from pipeline-off\n got:\n%s\nwant:\n%s",
							where, res.Taxonomy.Render(), off.Taxonomy.Render())
					}
					if len(res.Undecided) != 0 {
						t.Errorf("%s: undecided tests %v", where, res.Undecided)
					}
					if fault.lost && res.Stats.FilterHits != 0 {
						t.Errorf("%s: %d filter hits from lost rows", where, res.Stats.FilterHits)
					}
					if !prepass && !fault.f.indexPanics && rows.Load() == 0 {
						t.Errorf("%s: no row was built", where)
					}
				}
			}
		}
	}

	tb := randomMixedTBox(rand.New(rand.NewSource(6)), 12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rows atomic.Int64
	f := faultyRows{Reasoner: tableau.New(tb, tableau.Options{}), onRow: func(int) { cancel() }, rows: &rows}
	_, err := ClassifyContext(ctx, tb, Options{Reasoner: f, Workers: 3, ModelFilter: true})
	if rows.Load() == 0 {
		t.Fatal("no row was built, so nothing was cancelled mid-build")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-build: err = %v, want context.Canceled", err)
	}
}

// TestPrepassRowsMatchPerFact checks the row-wise transfer of a fragment
// saturation against the per-fact transfer it replaced, written out here
// over the fragment's Sat/Subs answers: on random mixed (partial
// fragment) and EL (complete fragment) TBoxes, in both modes, P, K,
// every satisfiability state and PreSeeded must come out equal. In basic
// mode P is also the claim: a directed test is claimed by clearing its
// bit, one fact at a time here.
func TestPrepassRowsMatchPerFact(t *testing.T) {
	ctx := context.Background()
	perFact := func(s *state, frag *el.Reasoner, complete bool) {
		for x, c := range s.named[:s.top] {
			if ok, _ := frag.Sat(ctx, c); !ok && s.markUnsat(x) {
				s.count.PreSeeded.Add(1)
			}
		}
		for sub := range s.named {
			for sup := range s.named[:s.top] {
				if sub == sup || s.satState[sub].Load() == satNo || s.satState[sup].Load() == satNo {
					continue
				}
				if ok, _ := frag.Subs(ctx, s.named[sup], s.named[sub]); !ok {
					continue
				}
				s.K[sup].Set(sub)
				switch {
				case complete:
				case !s.optimized:
					if s.P[sup].Clear(sub) {
						s.count.PreSeeded.Add(1)
					}
				case s.K[sub].Test(sup) && s.claimPair(sub, sup):
					s.count.PreSeeded.Add(2)
				}
			}
		}
		if !complete {
			return
		}
		for x := 0; x < s.n; x++ {
			if s.satState[x].CompareAndSwap(satUnknown, satYes) {
				s.count.PreSeeded.Add(1)
			}
			s.P[x].ForEach(func(y int) bool {
				if s.optimized {
					s.count.PreSeeded.Add(2)
				} else {
					s.count.PreSeeded.Add(1)
				}
				return true
			})
			s.P[x].ClearAll()
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mixed := randomMixedTBox(rng, 5+rng.Intn(60))
		// A partial fragment that proves ⊤ ⊑ C0 and an equivalence, so
		// both kinds of mutual pair get claimed.
		cs := mixed.NamedConcepts()
		mixed.SubClassOf(mixed.Factory.Top(), cs[0])
		mixed.EquivalentClasses(cs[1+rng.Intn(len(cs)-1)], cs[1+rng.Intn(len(cs)-1)])
		for _, tb := range []*dl.TBox{mixed, randomELTBox(rng, 4+rng.Intn(60))} {
			frag := newFragment(tb, 2)
			for _, optimized := range []bool{true, false} {
				got, want := newState(tb, nil, optimized), newState(tb, nil, optimized)
				if _, err := got.seed(frag); err != nil {
					t.Fatal(err)
				}
				perFact(want, frag.Reasoner, frag.complete)
				name := fmt.Sprintf("seed %d %s optimized=%v complete=%v", seed, tb.Name, optimized, frag.complete)
				if g, w := got.count.PreSeeded.Load(), want.count.PreSeeded.Load(); g != w {
					t.Fatalf("%s: PreSeeded %d, per-fact %d", name, g, w)
				}
				for x := 0; x < got.n; x++ {
					if g, w := got.satState[x].Load(), want.satState[x].Load(); g != w {
						t.Fatalf("%s: satState[%d] %d, per-fact %d", name, x, g, w)
					}
					if !got.P[x].Snapshot().Equal(want.P[x].Snapshot()) || !got.K[x].Snapshot().Equal(want.K[x].Snapshot()) {
						t.Fatalf("%s: row %d: P %v K %v, per-fact P %v K %v", name, x,
							got.P[x].Snapshot(), got.K[x].Snapshot(), want.P[x].Snapshot(), want.K[x].Snapshot())
					}
				}
			}
		}
	}
}
