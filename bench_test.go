package parowl

// Benchmarks regenerating each table and figure of the paper at reduced
// scale (testing.B needs sub-second iterations; cmd/benchfig produces the
// full series). One benchmark per table/figure, plus ablations of the
// design choices DESIGN.md calls out: basic vs optimized mode (Sec. IV
// pruning), round-robin vs async scheduling, and the plug-in
// reasoners against each other and the sequential baselines.
//
// Run: go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"parowl/internal/bitset"
	"parowl/internal/core"
	"parowl/internal/el"
	"parowl/internal/ontogen"
	"parowl/internal/reasoner"
	"parowl/internal/schedsim"
	"parowl/internal/tableau"
	"parowl/internal/taxonomy"
)

// benchCorpus generates a scaled corpus once per benchmark.
func benchCorpus(b *testing.B, name string, scale int) *TBox {
	b.Helper()
	p, ok := ontogen.ByName(name)
	if !ok {
		b.Fatalf("unknown profile %s", name)
	}
	if scale > 1 {
		p = ontogen.Mini(p, scale)
	}
	tb, err := p.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	return tb
}

// BenchmarkTable4Generate measures generating the largest Table IV corpus
// (EMAP, 13 735 concepts) and computing its metrics row.
func BenchmarkTable4Generate(b *testing.B) {
	p, _ := ontogen.ByName("EMAP#EMAP")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := p.Generate(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		m := ComputeMetrics(tb)
		if m.Concepts != 13735 {
			b.Fatalf("bad corpus: %v", m)
		}
	}
}

// BenchmarkTable5Generate measures the QCR-heavy bridg profile.
func BenchmarkTable5Generate(b *testing.B) {
	p, _ := ontogen.ByName("bridg.biomedical_domain")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := p.Generate(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if m := ComputeMetrics(tb); m.QCRs != 967 {
			b.Fatalf("bad corpus: %v", m)
		}
	}
}

// benchSpeedupPoint runs one (ontology, w) sample of a figure: classify
// with a w-worker pool against the oracle and replay in virtual time.
func benchSpeedupPoint(b *testing.B, profile string, scale, w int, cost reasoner.CostModel) {
	b.Helper()
	tb := benchCorpus(b, profile, scale)
	oracle := reasoner.NewOracle(tb, reasoner.OracleOptions{SubsCost: cost})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Classify(tb, core.Options{
			Reasoner: oracle, Workers: w, CollectTrace: true, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		r := schedsim.Simulate(res.Trace, w, schedsim.DefaultOverhead, core.RoundRobin)
		if r.Speedup <= 0 {
			b.Fatal("no speedup computed")
		}
	}
}

func uniformMS(seed uint64) reasoner.CostModel {
	return reasoner.UniformCost(time.Millisecond, 0.2, seed)
}

// BenchmarkFig9aSpeedup: small-ontology sample point (obo.PREVIOUS, w=32,
// the paper's observed peak region).
func BenchmarkFig9aSpeedup(b *testing.B) {
	benchSpeedupPoint(b, "obo.PREVIOUS", 8, 32, uniformMS(1))
}

// BenchmarkFig9bSpeedup: medium ontology (WBbt) at w=64.
func BenchmarkFig9bSpeedup(b *testing.B) {
	benchSpeedupPoint(b, "WBbt.obo", 16, 64, uniformMS(1))
}

// BenchmarkFig9cSpeedup: large ontology (EMAP) at w=140.
func BenchmarkFig9cSpeedup(b *testing.B) {
	benchSpeedupPoint(b, "EMAP#EMAP", 16, 140, uniformMS(1))
}

// BenchmarkFig10aSpeedup: moderate-QCR corpus (ncitations) at w=80.
func BenchmarkFig10aSpeedup(b *testing.B) {
	benchSpeedupPoint(b, "ncitations_functional", 8, 80, uniformMS(1))
}

// BenchmarkFig10bSpeedup: bridg with its heavy-tailed cost model at w=80
// (the plateau sample).
func BenchmarkFig10bSpeedup(b *testing.B) {
	p, _ := ontogen.ByName("bridg.biomedical_domain")
	p = ontogen.Mini(p, 4)
	n := float64(p.Concepts)
	benchSpeedupPoint(b, "bridg.biomedical_domain", 4, 80,
		reasoner.HeavyTailCost(time.Millisecond, 4/(n*n), n*n/2, 1))
}

// BenchmarkFig11Cycles: the load-balancing measurement — 10 random
// division cycles with full tracing on the ncitations profile.
func BenchmarkFig11Cycles(b *testing.B) {
	tb := benchCorpus(b, "ncitations_functional", 4)
	oracle := reasoner.NewOracle(tb, reasoner.OracleOptions{SubsCost: uniformMS(1)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Classify(tb, core.Options{
			Reasoner: oracle, Workers: 10, RandomCycles: 10, CollectTrace: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Trace.PossibleRatio(9) <= 0 {
			b.Fatal("no possible-ratio progression")
		}
	}
}

// BenchmarkClassifyWorkers measures real wall-clock classification with
// the EL plug-in at increasing pool sizes (genuine parallel speedup on
// multi-core machines; on one core it measures pool overhead).
func BenchmarkClassifyWorkers(b *testing.B) {
	tb := benchCorpus(b, "WBbt.obo", 32)
	elr, err := el.New(tb, el.Options{})
	if err != nil {
		b.Fatal(err)
	}
	_ = elr.SaturateContext(context.Background())
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Classify(tb, core.Options{Reasoner: elr, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModeAblation compares the published Section III algorithm
// (basic) against the Section IV optimized mode on the same corpus: the
// optimization's pruned pairs translate into fewer reasoner calls.
func BenchmarkModeAblation(b *testing.B) {
	tb := benchCorpus(b, "obo.PREVIOUS", 8)
	oracle := reasoner.NewOracle(tb, reasoner.OracleOptions{})
	for _, mode := range []core.Mode{core.Basic, core.Optimized} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			var tests int64
			for i := 0; i < b.N; i++ {
				res, err := core.Classify(tb, core.Options{Reasoner: oracle, Workers: 4, Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				tests = res.Stats.SubsTests
			}
			b.ReportMetric(float64(tests), "tests/run")
		})
	}
}

// BenchmarkSchedulingAblation compares round-robin (the paper's policy)
// against barrier-free async dispatch.
func BenchmarkSchedulingAblation(b *testing.B) {
	tb := benchCorpus(b, "obo.PREVIOUS", 8)
	oracle := reasoner.NewOracle(tb, reasoner.OracleOptions{})
	for _, sched := range []core.Scheduling{core.RoundRobin, core.Async} {
		b.Run(sched.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Classify(tb, core.Options{
					Reasoner: oracle, Workers: 4, Scheduling: sched,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableauSubsumption measures single subsumption tests on a
// QCR-bearing corpus — the unit of work the paper's plug-in (HermiT)
// performs — plain, and filtered the way the classifier's model filter
// runs them: DisprovesSubs first, Subs only when it answers "don't know".
func BenchmarkTableauSubsumption(b *testing.B) {
	tb := benchCorpus(b, "bridg.biomedical_domain", 8)
	named := tb.NamedConcepts()
	for _, filtered := range []bool{false, true} {
		name := "plain"
		if filtered {
			name = "filtered"
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			tab := tableau.New(tb, tableau.Options{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sup := named[i%len(named)]
				sub := named[(i*7+3)%len(named)]
				if filtered && tab.DisprovesSubs(ctx, sup, sub) {
					continue
				}
				if _, err := tab.Subs(ctx, sup, sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelFilterRows measures the model filter over every ordered
// pair of nskisimple/3's concepts and ⊤ (the classify-qcr corpus), in the
// two forms the tableau offers: FilterRows' column index and one row of
// word-wide bit operations per concept, against one DisprovesSubs merge
// per pair. Every pseudo model is cached before timing (Sat keeps pm(y), a first
// pass builds each pm(¬x)), so both sides time the merging alone.
func BenchmarkModelFilterRows(b *testing.B) {
	tb := benchCorpus(b, "nskisimple_functional", 3)
	cs := append(tb.NamedConcepts(), tb.Factory.Top())
	ctx := context.Background()
	tab := tableau.New(tb, tableau.Options{})
	for _, c := range tb.NamedConcepts() {
		if _, err := tab.Sat(ctx, c); err != nil {
			b.Fatal(err)
		}
	}
	out := bitset.New(len(cs))
	rows := func() (hits int) {
		row := tab.FilterRows(ctx, cs)
		for x := range cs {
			row(x, out)
			hits += out.Count()
		}
		return hits
	}
	want := rows()
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := rows(); got != want {
				b.Fatalf("%d hits, want %d", got, want)
			}
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits := 0
			for _, sup := range cs {
				for _, sub := range cs {
					if tab.DisprovesSubs(ctx, sup, sub) {
						hits++
					}
				}
			}
			if hits != want {
				b.Fatalf("%d hits, want %d", hits, want)
			}
		}
	})
}

// BenchmarkTableauSatReuse measures repeated satisfiability tests served
// by a warm solver pool — the steady state of a classification run, where
// the arena (pooled solvers, recycled nodes, slab-allocated dependency
// sets) should drive per-test heap allocation to near zero.
func BenchmarkTableauSatReuse(b *testing.B) {
	tb := benchCorpus(b, "bridg.biomedical_domain", 8)
	tab := tableau.New(tb, tableau.Options{})
	named := tb.NamedConcepts()
	// Warm the pool so the steady state, not first-use arena growth, is
	// what gets measured.
	for _, c := range named[:16] {
		if _, err := tab.Sat(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Sat(context.Background(), named[i%len(named)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := tab.Stats()
	if total := st.SolversReused.Load() + st.SolversAllocated.Load(); total > 0 {
		b.ReportMetric(float64(st.SolversReused.Load())/float64(total), "solver-reuse-ratio")
	}
	if total := st.NodesReused.Load() + st.NodesAllocated.Load(); total > 0 {
		b.ReportMetric(float64(st.NodesReused.Load())/float64(total), "node-reuse-ratio")
	}
}

// BenchmarkELSaturation measures one-shot concurrent saturation (the
// ELK-style competitor) at one worker and at GOMAXPROCS:
//
//	go test -run '^$' -bench ELSaturation -benchmem .
//
// It times SaturateContext alone, on a fragment NewFragment normalized up
// front. perfbench's el.saturate_s starts from el.New, which defers
// normalization to the first query, so it also times the normalization.
// A saturation writes the pure atoms' rows by the told closure before its
// workers start, and the workers apply the rules fact by fact to the
// rest. The cases, by the path they take:
//
//   - WBbt-8 and WBbt-3, WBbt at 1/8 and at 1/3 (the corpus of
//     perfbench's classify-el): every atom but ⊥ is pure, so the closure
//     only.
//   - WBbt-3-live, WBbt/3 plus one DisjointClasses axiom between two
//     leaves: ⊥ becomes derivable, so every role is live and every link
//     is stored (99,374). Atoms with an ∃ on their right, and every atom
//     below one, go fact by fact; the rest go through the closure.
//   - nski-3-fragment, the EL fragment of nskisimple_functional at 1/3
//     (the corpus of perfbench's classify-qcr): it derives ⊥ and 51 of
//     its 651 atoms are pure, so mostly fact by fact.
func BenchmarkELSaturation(b *testing.B) {
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	live := withDisjointLeaves(b, benchCorpus(b, "WBbt.obo", 3))
	for _, c := range []struct {
		name string
		tb   *TBox
	}{
		{"WBbt-8", benchCorpus(b, "WBbt.obo", 8)},
		{"WBbt-3", benchCorpus(b, "WBbt.obo", 3)},
		{"WBbt-3-live", live},
		{"nski-3-fragment", benchCorpus(b, "nskisimple_functional", 3)},
	} {
		for _, w := range workers {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					// NewFragment normalizes up front (el.New would wait
					// for the first query), so the timer sees saturation
					// alone; the fragment of an EL TBox is all of it.
					r, _ := el.NewFragment(c.tb, el.Options{Workers: w})
					b.StartTimer()
					if err := r.SaturateContext(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// withDisjointLeaves returns a copy of the generated (frozen) corpus tb
// with DisjointClasses between its last two named concepts, leaves of
// the generated hierarchy, added through a functional-syntax round trip.
func withDisjointLeaves(b *testing.B, tb *TBox) *TBox {
	var src bytes.Buffer
	if err := Write(&src, tb, FormatFunctional); err != nil {
		b.Fatal(err)
	}
	named := tb.NamedConcepts()
	text := bytes.TrimSuffix(bytes.TrimSpace(src.Bytes()), []byte(")"))
	text = fmt.Appendf(text, "DisjointClasses(%s %s)\n)\n", named[len(named)-1].Name, named[len(named)-2].Name)
	ont, err := NewEngine().Load(bytes.NewReader(text), tb.Name, FormatFunctional)
	if err != nil {
		b.Fatal(err)
	}
	return ont.TBox()
}

// BenchmarkAdopt times a restart's re-adoption: Engine.Load parses the
// OBO bytes and Ontology.Adopt rebuilds the taxonomy from a finished
// checkpoint and compiles its kernel, as owld does at boot and on a cold
// reload. WBbt-3 is perfbench classify-el's corpus, WBbt at 1/3 scale,
// and EMAP-8 serve's cold-read corpus, EMAP at 1/8. Each reports the
// checkpoint's size as ck-bytes.
//
//	go test -run '^$' -bench Adopt -benchmem .
func BenchmarkAdopt(b *testing.B) {
	for _, c := range []struct {
		name, profile string
		scale         int
	}{{"WBbt-3", "WBbt.obo", 3}, {"EMAP-8", "EMAP#EMAP", 8}} {
		b.Run(c.name, func(b *testing.B) {
			var src bytes.Buffer
			if err := Write(&src, benchCorpus(b, c.profile, c.scale), FormatOBO); err != nil {
				b.Fatal(err)
			}
			eng := NewEngine()
			ont, err := eng.Load(bytes.NewReader(src.Bytes()), c.name, FormatOBO)
			if err != nil {
				b.Fatal(err)
			}
			ck := filepath.Join(b.TempDir(), c.name+".ck")
			opts := eng.Options()
			opts.Checkpoint, opts.CompileKernel = ck, true
			if _, err := ont.ClassifyWith(context.Background(), opts); err != nil {
				b.Fatal(err)
			}
			fi, err := os.Stat(ck)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh, err := eng.Load(bytes.NewReader(src.Bytes()), c.name, FormatOBO)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fresh.Adopt(context.Background(), ck); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fi.Size()), "ck-bytes")
		})
	}
}

// BenchmarkCompileKernel times the kernel compile every adoption and
// resumed finished run pays, since checkpoints do not store the kernel:
// taxonomy.CompileWorkers at two workers on the classified WBbt/3
// taxonomy, BenchmarkAdopt's corpus.
//
//	go test -run '^$' -bench CompileKernel -benchmem .
func BenchmarkCompileKernel(b *testing.B) {
	ont := NewEngine().NewOntology(benchCorpus(b, "WBbt.obo", 3))
	res, err := ont.Classify(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		taxonomy.CompileWorkers(res.Taxonomy, 2)
	}
}

// BenchmarkPairLoop times one owld edit of perfbench serve's edit
// corpus, actpathway at 1/8 scale: Engine.Load parses the OBO bytes and
// the paper's plain pair loop classifies them, with owld's template (the
// cheap-first pipeline off) and the auto plug-in. The corpus is EL, so
// the plug-in is the EL reasoner and each of its ~750k subs? tests is a
// bit lookup: the loop's own bookkeeping around the tests is most of
// what this measures. -cpu sets the worker count.
//
//	go test -run '^$' -bench PairLoop -benchmem -cpu 1,2 .
func BenchmarkPairLoop(b *testing.B) {
	var src bytes.Buffer
	if err := Write(&src, benchCorpus(b, "actpathway.obo", 8), FormatOBO); err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(WithOptions(Options{RandomCycles: 2, Scheduling: RoundRobin}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ont, err := eng.Load(bytes.NewReader(src.Bytes()), "edit", FormatOBO)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ont.Classify(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialBaselines compares the two sequential comparators:
// brute force and enhanced traversal (fewer tests, more coordination).
func BenchmarkSequentialBaselines(b *testing.B) {
	tb := benchCorpus(b, "obo.PREVIOUS", 16)
	oracle := reasoner.NewOracle(tb, reasoner.OracleOptions{})
	b.Run("bruteforce", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SequentialBruteForce(tb, oracle); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traversal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.EnhancedTraversal(tb, oracle); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkModelFilterAblation compares plain tableau classification
// with and without the classifier's model filter (Options.ModelFilter) on
// a Table V mini corpus: most tests are non-subsumptions that the
// tableau's pseudo-model merge disproves without a tableau run.
func BenchmarkModelFilterAblation(b *testing.B) {
	tb := benchCorpus(b, "nskisimple_functional", 16)
	for _, filter := range []bool{false, true} {
		name := "off"
		if filter {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := tableau.New(tb, tableau.Options{})
				if _, err := core.Classify(tb, core.Options{Reasoner: r, Workers: 2, ModelFilter: filter}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkELKStyleVsFramework compares direct saturation-based
// classification (ELK's approach, complete only for EL) against the
// paper's pairwise-testing framework using the same saturation as its
// plug-in — the trade-off the paper's introduction discusses: the
// framework supports any logic through its plug-in at the cost of
// pairwise testing.
func BenchmarkELKStyleVsFramework(b *testing.B) {
	tb := benchCorpus(b, "WBbt.obo", 32)
	b.Run("elk-direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := el.New(tb, el.Options{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Classify(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("framework", func(b *testing.B) {
		r, err := el.New(tb, el.Options{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		_ = r.SaturateContext(context.Background())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Classify(tb, core.Options{Reasoner: r, Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClassifyComplete times one classification of a complete EL
// fragment under NewEngine's default template, the operation
// perfbench's classify-el times after the load: the prepass saturates
// the fragment, and phase 3 builds the taxonomy from the saturation's
// rows without P, K or a plug-in call. WBbt-3 is classify-el's corpus,
// EMAP the largest Table IV corpus at full size (13,735 concepts).
//
//	go test -run '^$' -bench ClassifyComplete -benchmem .
func BenchmarkClassifyComplete(b *testing.B) {
	for _, c := range []struct {
		name, profile string
		scale         int
	}{{"WBbt-3", "WBbt.obo", 3}, {"EMAP", "EMAP#EMAP", 1}} {
		b.Run(c.name, func(b *testing.B) {
			ont := NewEngine().NewOntology(benchCorpus(b, c.profile, c.scale))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ont.Classify(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if calls := res.Stats.SatTests + res.Stats.SubsTests; calls != 0 {
					b.Fatalf("%d plug-in calls on a complete fragment", calls)
				}
			}
		})
	}
}

// BenchmarkOracleLookup measures the oracle plug-in's per-test cost (the
// floor under every scheduling experiment).
func BenchmarkOracleLookup(b *testing.B) {
	tb := benchCorpus(b, "ncitations_functional", 4)
	oracle := reasoner.NewOracle(tb, reasoner.OracleOptions{})
	named := tb.NamedConcepts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.Subs(context.Background(), named[i%len(named)], named[(i+1)%len(named)]); err != nil {
			b.Fatal(err)
		}
	}
}
