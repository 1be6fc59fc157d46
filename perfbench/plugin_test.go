package main

import (
	"context"
	"testing"
	"time"

	"parowl"
	"parowl/internal/dl"
	"parowl/internal/reasoner"
)

func tinyCorpus(t *testing.T, profile string, scale int) *parowl.Ontology {
	t.Helper()
	b, err := corpus{ID: "tiny", Profile: profile, Scale: scale, Format: parowl.FormatFunctional}.build(7)
	if err != nil {
		t.Fatal(err)
	}
	ont, err := b.load(parowl.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	return ont
}

// The timing decorator must be invisible to the classifier: with one
// worker (deterministic counts), pipeline off and on, decorated and bare
// runs give identical Stats and taxonomies.
func TestTimedReasonerPreservesStatsAndCapabilities(t *testing.T) {
	ont := tinyCorpus(t, "nskisimple_functional", 30)
	bare := parowl.NewTableauReasoner(ont.TBox())
	timed := &timedReasoner{r: bare, log: newCallLog(1 << 16)}
	if reasoner.AsModelFilter(timed) == nil || reasoner.AsModelFilter(bare) == nil {
		t.Fatal("ModelFilter capability lost")
	}
	cached := reasoner.NewCached(bare)
	if reasoner.AsCachePorter(&timedReasoner{r: cached, log: newCallLog(1)}) != reasoner.AsCachePorter(cached) {
		t.Fatal("CachePorter capability not reached through the decorator")
	}
	for _, pipeline := range []bool{false, true} {
		run := func(r parowl.Reasoner) *parowl.Result {
			res, err := ont.ClassifyWith(context.Background(), parowl.Options{
				Reasoner: r, Workers: 1, ELPrepass: pipeline, ModelFilter: pipeline,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(parowl.NewTableauReasoner(ont.TBox()))
		log := newCallLog(1 << 16)
		got := run(&timedReasoner{r: parowl.NewTableauReasoner(ont.TBox()), log: log})
		if got.Stats != want.Stats {
			t.Errorf("pipeline=%v: decorated stats %+v, bare %+v", pipeline, got.Stats, want.Stats)
		}
		if got.Taxonomy.Fingerprint() != want.Taxonomy.Fingerprint() {
			t.Errorf("pipeline=%v: decorated taxonomy differs", pipeline)
		}
		ps := log.stats()
		if ps.SatCalls != got.Stats.SatTests || ps.SubsCalls != got.Stats.SubsTests || ps.Dropped != 0 {
			t.Errorf("pipeline=%v: log saw %d sat / %d subs, stats say %d / %d", pipeline,
				ps.SatCalls, ps.SubsCalls, got.Stats.SatTests, got.Stats.SubsTests)
		}
		if pipeline && got.Stats.FilterHits == 0 {
			t.Errorf("pipeline on but no filter hits: the decorator hid the model filter")
		}
	}
}

// delayed adds a fixed busy-wait to every plug-in call.
type delayed struct {
	reasoner.Interface
	d time.Duration
}

func (s delayed) spin() {
	for start := time.Now(); time.Since(start) < s.d; {
	}
}

func (s delayed) Sat(ctx context.Context, c *dl.Concept) (bool, error) {
	s.spin()
	return s.Interface.Sat(ctx, c)
}

func (s delayed) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	s.spin()
	return s.Interface.Subs(ctx, sup, sub)
}

// A deliberately slowed plug-in layer must show up where the benchmark
// attributes it: plugin.busy_s rises by calls × delay, the classify span
// by about calls × delay ÷ workers, and core.self_s stays put.
func TestSlowedPluginIsAttributedToThePluginLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const workers = 2
	const delay = 100 * time.Microsecond
	ont := tinyCorpus(t, "WBbt.obo", 60)
	measure := func(d time.Duration) (calls int64, busy, span, self time.Duration) {
		r := parowl.Reasoner(parowl.NewAutoReasoner(ont.TBox()))
		if d > 0 {
			r = delayed{r, d}
		}
		log := newCallLog(1 << 20)
		o := op{clsStart: time.Now()}
		res, err := ont.ClassifyWith(context.Background(), parowl.Options{
			Reasoner: &timedReasoner{r: r, log: log}, Workers: workers, CollectTrace: true,
		})
		o.clsEnd = time.Now()
		if err != nil {
			t.Fatal(err)
		}
		o.res = res
		lm := map[string]float64{}
		layerFromClassify(lm, o, log, nil)
		ps := log.stats()
		return ps.SatCalls + ps.SubsCalls, ps.Busy, o.clsEnd.Sub(o.clsStart),
			time.Duration(lm["core.self_s"] * float64(time.Second))
	}
	best := func(d time.Duration) (int64, time.Duration, time.Duration, time.Duration) {
		// The fastest of three runs: noise from other processes only adds.
		var c int64
		var b, s, self time.Duration
		for i := 0; i < 3; i++ {
			ci, bi, si, selfi := measure(d)
			if i == 0 || si < s {
				c, b, s, self = ci, bi, si, selfi
			}
		}
		return c, b, s, self
	}
	calls0, busy0, span0, self0 := best(0)
	calls1, busy1, span1, self1 := best(delay)
	if calls0 != calls1 {
		t.Logf("call counts differ across runs: %d vs %d", calls0, calls1)
	}
	added := time.Duration(calls1) * delay
	t.Logf("calls %d, added %v: busy %v→%v, span %v→%v, self %v→%v", calls1, added, busy0, busy1, span0, span1, self0, self1)
	if d := busy1 - busy0; d < added*9/10 || d > added*3/2 {
		t.Errorf("plugin.busy_s rose by %v, want about calls × delay = %v", d, added)
	}
	if d, want := span1-span0, added/workers; d < want*6/10 || d > want*17/10 {
		t.Errorf("classify span rose by %v, want about calls × delay ÷ workers = %v", d, want)
	}
	if d := self1 - self0; d > added/10 || d < -added/10 {
		t.Errorf("core.self_s moved by %v (%v → %v); the delay was charged to core", d, self0, self1)
	}
}
