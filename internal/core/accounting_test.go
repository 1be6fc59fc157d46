package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"parowl/internal/dl"
	"parowl/internal/el"
	"parowl/internal/ontogen"
	"parowl/internal/reasoner"
)

// pairAccounting returns both sides of the pair-accounting identity of a
// run with no degraded test. With n the named concepts plus ⊤ and m
// those of them that are satisfiable, every directed test between two
// satisfiable concepts is settled exactly once. In optimized mode that is
// by a plug-in call, a filter hit, the prepass, or as one of a pruned
// pair's two directions, so the counters sum to m(m−1); with the pipeline
// on, the prepass also settles every named concept's satisfiability, by a
// probe or from the fragment, which adds n − 1. Basic mode with the
// pipeline off makes one plug-in call per directed test except the m − 1
// entries (⊤, X) claimed up front, (m−1)² calls.
func pairAccounting(tb *dl.TBox, res *Result, mode Mode, pipeline bool) (got, want int64) {
	n := int64(tb.NumNamed() + 1)
	m := n
	for _, c := range tb.NamedConcepts() {
		if res.Taxonomy.NodeOf(c) == res.Taxonomy.Bottom() {
			m--
		}
	}
	st := res.Stats
	if mode == Basic {
		return st.SubsTests, (m - 1) * (m - 1)
	}
	got = st.SubsTests + st.FilterHits + st.PreSeeded + 2*st.Pruned
	want = m * (m - 1)
	if pipeline {
		got += st.SatTests
		want += n - 1
	}
	return got, want
}

// TestPairAccounting checks the pair-accounting identity (see
// pairAccounting) under both policies, at 1, 2 and 4 workers, in
// optimized mode with the pipeline off and on and in basic mode with it
// off: over the EL plug-in on three Table IV corpora, the tableau on two
// Table V corpora, the paper's example and random TBoxes. Tasks tally
// their counters locally and add them once when they end, so a tally
// that is dropped, or added twice, breaks the identity; in basic mode a
// directed entry claimed twice, or never, breaks it too.
//
// Basic mode with the pipeline on is left out: its prepass claims the
// directed entries the fragment proves, some of which involve a concept
// the sat? sweep later finds unsatisfiable (7 on rnao_functional/12), and
// m does not count those.
func TestPairAccounting(t *testing.T) {
	type corpus struct {
		tb *dl.TBox
		r  reasoner.Interface
	}
	var corpora []corpus
	for _, c := range []struct {
		profile string
		scale   int
		el      bool
	}{
		{"actpathway.obo", 16, true},
		{"WBbt.obo", 16, true},
		{"EMAP#EMAP", 32, true},
		{"rnao_functional", 12, false},
		{"nskisimple_functional", 8, false},
	} {
		p, ok := ontogen.ByName(c.profile)
		if !ok {
			t.Fatalf("profile %s missing", c.profile)
		}
		tb, err := ontogen.Mini(p, c.scale).Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		r := tableauFactory(tb)
		if c.el {
			if r, err = el.New(tb, el.Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		corpora = append(corpora, corpus{tb, r})
	}
	tb := exampleTBox()
	corpora = append(corpora, corpus{tb, tableauFactory(tb)})
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 27; i++ {
		tb := randomTaxonomyTBox(rng, 4+rng.Intn(20))
		corpora = append(corpora, corpus{tb, tableauFactory(tb)})
	}
	var seen Stats // every counter of the identity must move somewhere
	for i, c := range corpora {
		for _, sched := range allSchedulings {
			for _, w := range []int{1, 2, 4} {
				for _, run := range []struct {
					mode     Mode
					pipeline bool
				}{{Optimized, false}, {Optimized, true}, {Basic, false}} {
					name := fmt.Sprintf("%s#%d %v %v w=%d pipeline=%v", c.tb.Name, i, run.mode, sched, w, run.pipeline)
					res := classify(t, c.tb, Options{
						Reasoner: c.r, Workers: w, Scheduling: sched, Seed: int64(i), Mode: run.mode,
						ELPrepass: run.pipeline, ModelFilter: run.pipeline,
					})
					if len(res.Undecided) != 0 {
						t.Fatalf("%s: %d degraded tests", name, len(res.Undecided))
					}
					if got, want := pairAccounting(c.tb, res, run.mode, run.pipeline); got != want {
						t.Errorf("%s: counters settle %d directed tests, want %d (%+v)", name, got, want, res.Stats)
					}
					seen.SatTests += res.Stats.SatTests
					seen.SubsTests += res.Stats.SubsTests
					seen.FilterHits += res.Stats.FilterHits
					seen.PreSeeded += res.Stats.PreSeeded
					seen.Pruned += res.Stats.Pruned
				}
			}
		}
	}
	if seen.SatTests == 0 || seen.SubsTests == 0 || seen.FilterHits == 0 || seen.PreSeeded == 0 || seen.Pruned == 0 {
		t.Errorf("a counter of the identity never moved: %+v", seen)
	}
}

// TestOracleChargesVirtualCost pins the charge the virtual-time scheduler
// (internal/schedsim) replays for Figs. 9–11 and BENCH_sched: under a
// reasoner.Virtual plug-in a phase-1/2 task is charged the summed
// virtual cost of its subs? tests and nothing else — no wall time, no
// sat? probe, no pruning. With a constant 1 ms cost, every random or
// group cycle's Runtime is its SubsTests count in milliseconds, exactly,
// under both policies with the pipeline off.
func TestOracleChargesVirtualCost(t *testing.T) {
	const cost = time.Millisecond
	p, ok := ontogen.ByName("actpathway.obo")
	if !ok {
		t.Fatal("profile missing")
	}
	act, err := ontogen.Mini(p, 32).Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*dl.TBox{exampleTBox(), act} {
		oracle := reasoner.NewOracle(tb, reasoner.OracleOptions{
			SubsCost: func(*dl.Concept, *dl.Concept, bool) time.Duration { return cost },
		})
		for _, sched := range allSchedulings {
			for _, w := range []int{1, 3} {
				name := fmt.Sprintf("%s %v w=%d", tb.Name, sched, w)
				res := classify(t, tb, Options{
					Reasoner: oracle, Workers: w, Scheduling: sched, CollectTrace: true,
				})
				var cycles, tests int64
				for _, c := range res.Trace.Cycles {
					if c.Phase != PhaseRandom && c.Phase != PhaseGroup {
						continue
					}
					cycles++
					tests += c.SubsTests
					if got, want := c.Runtime(), time.Duration(c.SubsTests)*cost; got != want {
						t.Errorf("%s: %v cycle %d charged %v for %d subs? tests, want %v",
							name, c.Phase, c.Index, got, c.SubsTests, want)
					}
				}
				if cycles == 0 || tests != res.Stats.SubsTests || tests == 0 {
					t.Errorf("%s: %d random/group cycles hold %d of %d subs? tests", name, cycles, tests, res.Stats.SubsTests)
				}
			}
		}
	}
}
