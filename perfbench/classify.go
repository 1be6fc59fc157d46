package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parowl"
	"parowl/internal/el"
)

// classifySpec is one classify workload: a corpus and the independent
// algorithm that computes its reference taxonomy.
type classifySpec struct {
	corpus    corpus
	reference func(context.Context, built) (*reference, time.Duration, error)
}

var (
	// The auto reasoner picks the EL plug-in; half the worker time is
	// core's own bookkeeping around millions of cheap lookups.
	classifyEL = classifySpec{corpus{ID: "wbbt", Profile: "WBbt.obo", Scale: 3, Format: parowl.FormatOBO}, elReference}
	// The tableau decides every test; it takes almost all CPU.
	classifyQCR = classifySpec{corpus{ID: "nski", Profile: "nskisimple_functional", Scale: 3, Format: parowl.FormatFunctional}, traversalReference}
)

const (
	setupRepeats  = 45              // set-ups per run; setup_s is their median
	minOps        = 4               // classify operations per run, at least
	queryBurst    = 1024            // in-process queries timed after each operation
	rpsWindow     = 2 * time.Second // long enough to average the host's second-scale swings
	adoptShare    = 0.2             // re-adoption time after each operation, as a share of its wall time
	minAdopts     = 2               // re-adoptions after each operation, at least
	untracedEvery = 2               // in a traced run, every second operation is untraced
)

// op is one measured classify operation.
type op struct {
	start, end time.Time
	clsStart   time.Time // the Classify call's span
	clsEnd     time.Time
	wall, cpu  time.Duration
	calls      int64 // plug-in calls (sat? + subs?)
	snap       *parowl.Snapshot
	res        *parowl.Result
}

// classifyOnce runs one operation: bytes → Engine.Load → Classify →
// Snapshot.Kernel. With tr non-nil it also records layer spans and
// per-layer metrics into lm.
func classifyOnce(ctx context.Context, eng *parowl.Engine, b built, tr *tracer, lm map[string]float64, req int64) (op, error) {
	runtime.GC()
	o := op{start: time.Now()}
	c0 := cpuTime()
	opID, endOp := tr.begin("op", 0, req)
	_, endParse := tr.begin("parse", opID, req)
	t0 := time.Now()
	ont, err := b.load(eng)
	parse := time.Since(t0)
	endParse()
	if err != nil {
		return o, err
	}
	opts := eng.Options()
	opts.CollectTrace = tr != nil
	_, endClassify := tr.begin("classify", opID, req)
	o.clsStart = time.Now()
	res, err := ont.ClassifyWith(ctx, opts)
	o.clsEnd = time.Now()
	endClassify()
	if err != nil {
		return o, err
	}
	snap, err := ont.Snapshot()
	if err != nil {
		return o, err
	}
	_, endKernel := tr.begin("kernel", opID, req)
	t1 := time.Now()
	snap.Kernel()
	compile := time.Since(t1)
	endKernel()
	endOp()
	o.end = time.Now()
	o.wall, o.cpu, o.snap, o.res = o.end.Sub(o.start), cpuTime()-c0, snap, res
	if lm != nil {
		lm["parse.s"] = parse.Seconds()
		lm["parse.mb_per_s"] = float64(len(b.Src)) / 1e6 / parse.Seconds()
		lm["taxonomy.kernel_compile_s"] = compile.Seconds()
		lm["taxonomy.kernel_mb"] = float64(snap.Kernel().MemoryFootprint()) / 1e6
		lm["taxonomy.dag_mb"] = float64(snap.Taxonomy().MemoryFootprint()) / 1e6
	}
	return o, nil
}

// checkTaxonomy compares a classification with the reference.
func checkTaxonomy(res *parowl.Result, ref *reference) error {
	if len(res.Undecided) > 0 {
		return fmt.Errorf("%d undecided tests", len(res.Undecided))
	}
	if res.Taxonomy.Fingerprint() != ref.print {
		return fmt.Errorf("taxonomy differs from the reference")
	}
	return nil
}

func runClassify(ctx context.Context, c config, spec classifySpec) (*result, error) {
	res := newResult()
	if c.Traced {
		res.tr = newTracer()
	}
	// The reference and the expected answers come first, outside set-up
	// and outside every timed region.
	b, err := spec.corpus.build(corpusSeed)
	if err != nil {
		return nil, err
	}
	ref, refDur, err := spec.reference(ctx, b)
	if err != nil {
		return nil, err
	}
	res.set("baseline.seq_s", refDur.Seconds(), 1)
	rs, err := newReqSet(newMixer(b.ID, ref, c.Seed+1), queryBurst)
	if err != nil {
		return nil, err
	}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		sb, err := spec.corpus.build(corpusSeed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if string(sb.Src) != string(b.Src) {
			return nil, fmt.Errorf("corpus generation is not deterministic")
		}
	}
	res.set("setup_s", median(setups), len(setups))
	res.Corpora = []built{b}

	var logPtr atomic.Pointer[callLog]
	eng := parowl.NewEngine()
	tracedEng := timedEngine(&logPtr)
	ck, ckBytes, err := writeCheckpoint(ctx, c, eng, b)
	if err != nil {
		return nil, err
	}

	var (
		untraced, traced []op
		wall, cpu        []float64
		qlat             []float64
		rps              []float64
		layers           []map[string]float64
		restart, adopt   []float64
		reload           []float64
		lastTraced       *parowl.Snapshot
	)
	rss := startRSS()
	defer rss.close()
	var peaks []float64
	deadline := time.Now().Add(c.Seconds)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		var lm map[string]float64
		var log *callLog
		useEng := eng
		if c.Traced && i%untracedEvery == 1 {
			lm = map[string]float64{}
			capacity := 1 << 16
			if len(untraced) > 0 {
				capacity = int(untraced[0].calls)*5/4 + 1<<16
			}
			log = newCallLog(capacity)
			logPtr.Store(log)
			useEng = tracedEng
		}
		rss.take()
		o, err := classifyOnce(ctx, useEng, b, res.tr, lm, int64(i+1))
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss.take())
		res.outcome(checkTaxonomy(o.res, ref))
		o.calls = o.res.Stats.SatTests + o.res.Stats.SubsTests
		if lm != nil {
			layerFromClassify(lm, o, log, res.tr)
			elSaturate(ctx, b, lm)
			lastTraced = o.snap
		}
		snap := o.snap
		// Keep no snapshot or result beyond the latest: retained
		// generations would grow the heap, and the garbage collector's
		// work with it, from one operation to the next.
		o.snap, o.res = nil, nil
		if lm != nil {
			traced = append(traced, o)
			layers = append(layers, lm)
		} else {
			untraced = append(untraced, o)
			wall = append(wall, o.wall.Seconds())
			cpu = append(cpu, o.cpu.Seconds())
		}
		// The other metrics are sampled between operations, never during
		// one, so that nothing of the benchmark's own competes with a
		// timed operation and every metric samples the whole run.
		lat, ok := queryBurstOn(ctx, snap, rs, res)
		qlat = append(qlat, lat...) // one window of queryBurst samples per operation
		if ok {
			rps = append(rps, maxRPS(snap, rs, res))
		}
		adoptEnd := time.Now().Add(time.Duration(adoptShare * float64(o.wall)))
		for k := 0; k < minAdopts || time.Now().Before(adoptEnd); k++ {
			at, err := adoptOnce(ctx, eng, b, ck, rs, res)
			if err != nil {
				return nil, err
			}
			restart = append(restart, at.restart.Seconds())
			reload = append(reload, ms(at.reload))
			adopt = append(adopt, at.adopt.Seconds())
		}
	}

	if c.Traced {
		res.Metrics = mergeLayers(layers)
		res.set("baseline.seq_s", refDur.Seconds(), 1)
		res.set("checkpoint.mb", float64(ckBytes)/1e6, 0)
		res.set("checkpoint.adopt_s", median(adopt), len(adopt))
		var tw, uw []float64
		for _, o := range traced {
			tw = append(tw, o.wall.Seconds())
		}
		for _, o := range untraced {
			uw = append(uw, o.wall.Seconds())
		}
		res.set("trace.overhead_frac", median(tw)/median(uw)-1, len(tw))
		directQueries(lastTraced, rs, res)
		return res, nil
	}
	res.set("classify_s", median(wall), len(wall))
	res.set("classify_cpu_s", median(cpu), len(cpu))
	res.set("peak_rss_mb", median(peaks), len(peaks))
	res.set("query_p50_ms", median(qlat), len(qlat))
	p99, nw := windowP99(qlat, queryBurst)
	res.set("query_p99_ms", p99, len(qlat))
	res.note("query_p99_ms is the median of %d per-%d-request p99s", nw, queryBurst)
	res.set("query_max_rps", median(rps), len(rps))
	res.set("reload_query_ms", median(reload), len(reload))
	res.set("restart_ready_s", median(restart), len(restart))
	res.note("classify_s range: %.4g–%.4g s over %d operations", slices.Min(wall), slices.Max(wall), len(wall))
	res.note("query_max_rps range: %.4g–%.4g req/s over %d windows", slices.Min(rps), slices.Max(rps), len(rps))
	noteTail(res, "query latency", qlat)
	noteTail(res, "re-adoption and first query", reload)
	return res, nil
}

func orErr(err error, check func() error) error {
	if err != nil {
		return err
	}
	return check()
}

// queryBurstOn times every request of rs once, in-process and one at a
// time, on a fresh snapshot, and checks the answers afterwards.
func queryBurstOn(ctx context.Context, snap *parowl.Snapshot, rs reqSet, res *result) ([]float64, bool) {
	lat := make([]float64, len(rs.reqs))
	ans := make([]reply, len(rs.reqs))
	for i, rq := range rs.reqs {
		t0 := time.Now()
		lines, got, err := rq.evalLocal(ctx, snap)
		lat[i] = ms(time.Since(t0))
		if err != nil {
			res.outcome(err)
			return nil, false
		}
		ans[i] = reply{lines: lines, batch: got}
	}
	ok := true
	for i, rq := range rs.reqs {
		err := rq.verify(rs.want[i], ans[i].lines, ans[i].batch)
		res.outcome(err)
		ok = ok && err == nil
	}
	return lat, ok
}

// maxRPS runs nproc closed-loop callers of Snapshot.SubsumesBatch on
// snap for rpsWindow, each call one batch of batchPairs pairs (the mix's
// batched request) cut from every subsumption pair of rs, and returns
// the calls they complete per second of process CPU time, times nproc:
// the rate the host's CPUs sustain, which unlike a wall-clock rate does
// not fall when the host steals CPU from the process. Batches, not
// single EvalSpec queries: a single query's garbage, at a live heap of
// about 5 MB, set off about 27 collections a second, and the rate
// swung ±10–20% from one 1 s window to the next. Every answer is
// checked against the reference.
func maxRPS(snap *parowl.Snapshot, rs reqSet, res *result) float64 {
	var pairs [][2]string
	var want []bool
	for i, rq := range rs.reqs {
		switch {
		case rq.Batch != nil:
			pairs, want = append(pairs, rq.Batch...), append(want, rs.want[i].Batch...)
		case rq.Q.Op == "subsumes":
			pairs, want = append(pairs, [2]string{rq.Q.Args[0], rq.Q.Args[1]}), append(want, rs.want[i].Line == "true")
		}
	}
	batches := len(pairs) / batchPairs
	var done, bad atomic.Int64
	runtime.GC()
	stop := time.Now().Add(rpsWindow)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Now().Before(stop); i++ {
				k := i % batches * batchPairs
				got, err := snap.SubsumesBatch(pairs[k : k+batchPairs])
				if err != nil || !slices.Equal(got, want[k:k+batchPairs]) {
					bad.Add(1)
				}
				done.Add(1)
			}
		}(g)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	res.Attempted += int(done.Load())
	res.Failed += int(bad.Load())
	return float64(done.Load()) / cpu.Seconds() * float64(runtime.GOMAXPROCS(0))
}

// writeCheckpoint classifies once more with a checkpoint, as owld does
// (kernel included), and returns its path and size.
func writeCheckpoint(ctx context.Context, c config, eng *parowl.Engine, b built) (string, int64, error) {
	ck := filepath.Join(c.WorkDir, b.ID+".ck")
	ont, err := b.load(eng)
	if err != nil {
		return "", 0, err
	}
	opts := eng.Options()
	opts.Checkpoint, opts.CompileKernel = ck, true
	if _, err = ont.ClassifyWith(ctx, opts); err != nil {
		return "", 0, err
	}
	fi, err := os.Stat(ck)
	if err != nil {
		return "", 0, err
	}
	return ck, fi.Size(), nil
}

// adoptTimes are one re-adoption of a checkpoint by a fresh handle.
type adoptTimes struct {
	restart time.Duration // Load + Adopt
	reload  time.Duration // Load + Adopt + first query
	adopt   time.Duration // Adopt alone
}

// adoptOnce times a fresh handle re-adopting the checkpoint and
// answering its first query, and checks the answer.
func adoptOnce(ctx context.Context, eng *parowl.Engine, b built, ck string, rs reqSet, res *result) (adoptTimes, error) {
	first := 0
	for rs.reqs[first].Batch != nil {
		first++
	}
	runtime.GC()
	t0 := time.Now()
	fresh, err := b.load(eng)
	if err != nil {
		return adoptTimes{}, err
	}
	t1 := time.Now()
	if _, err = fresh.Adopt(ctx, ck); err != nil {
		return adoptTimes{}, err
	}
	t2 := time.Now()
	snap, err := fresh.Snapshot()
	if err != nil {
		return adoptTimes{}, err
	}
	lines, err := snap.EvalSpec(ctx, rs.reqs[first].Spec)
	t3 := time.Now()
	res.outcome(orErr(err, func() error { return rs.reqs[first].verify(rs.want[first], lines, nil) }))
	return adoptTimes{restart: t2.Sub(t0), reload: t3.Sub(t0), adopt: t2.Sub(t1)}, nil
}

// elSaturate times (*el.Reasoner).SaturateContext on an instance of its
// own. A corpus outside the EL fragment has no such layer and leaves the
// metric unset.
func elSaturate(ctx context.Context, b built, lm map[string]float64) {
	ont, err := b.load(parowl.NewEngine())
	if err != nil {
		return
	}
	r, err := el.New(ont.TBox(), el.Options{})
	if err != nil {
		return
	}
	t0 := time.Now()
	if r.SaturateContext(ctx) == nil {
		lm["el.saturate_s"] = time.Since(t0).Seconds()
	}
}

// layerFromClassify derives the plug-in and core metrics of one traced
// operation from the call log and Result.Stats/Trace.
func layerFromClassify(lm map[string]float64, o op, log *callLog, tr *tracer) {
	ps := log.stats()
	tr.count("plugin.sat_calls", ps.SatCalls)
	tr.count("plugin.subs_calls", ps.SubsCalls)
	tr.count("plugin.dropped", ps.Dropped)
	lm["plugin.sat_calls"] = float64(ps.SatCalls)
	lm["plugin.subs_calls"] = float64(ps.SubsCalls)
	lm["plugin.busy_s"] = ps.Busy.Seconds()
	lm["plugin.subs_p50_us"] = float64(ps.SubsP50) / 1e3
	lm["plugin.subs_p99_us"] = float64(ps.SubsP99) / 1e3
	lm["plugin.subs_max_ms"] = float64(ps.SubsMax) / 1e6
	lm["plugin.true_frac"] = ps.TrueFrac

	st, trc := o.res.Stats, o.res.Trace
	lm["core.pruned"] = float64(st.Pruned)
	if d := st.Pruned + st.SubsTests + st.PreSeeded + st.FilterHits; d > 0 {
		lm["core.prune_frac"] = float64(st.Pruned) / float64(d)
	}
	lm["core.preseeded"] = float64(st.PreSeeded)
	lm["core.filter_hits"] = float64(st.FilterHits)
	// The classify span in the call log's clock, minus the time any
	// plug-in call was running on any worker.
	cls := span{int64(o.clsStart.Sub(log.origin)), int64(o.clsEnd.Sub(log.origin))}
	lm["core.self_s"] = float64(selfNanos(cls, log.spans[:log.recorded()])) / 1e9
	if trc != nil {
		lm["core.wait_s"] = trc.TotalWait().Seconds()
		lm["core.imbalance"] = trc.OverallImbalance()
		if trc.WallElapsed > 0 {
			lm["core.speedup"] = float64(trc.TotalRuntime()) / float64(trc.WallElapsed)
		}
		for _, cy := range trc.Cycles {
			lm["core."+string(cy.Phase)+"_s"] += cy.Runtime().Seconds()
		}
		delete(lm, "core.prepass_s")
	}
}

// mergeLayers takes the per-metric median over traced operations.
func mergeLayers(layers []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, lm := range layers {
		for k, v := range lm {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// directQueries times the kernel's query calls on a snapshot directly,
// over the concepts of the request mix.
func directQueries(snap *parowl.Snapshot, rs reqSet, res *result) {
	var subs [][2]string
	var one []string
	var two [][2]string
	for _, rq := range rs.reqs {
		if rq.Batch != nil {
			subs = append(subs, rq.Batch...)
			continue
		}
		one = append(one, rq.Q.Args[0])
		if len(rq.Q.Args) == 2 {
			two = append(two, [2]string{rq.Q.Args[0], rq.Q.Args[1]})
			subs = append(subs, [2]string{rq.Q.Args[0], rq.Q.Args[1]})
		}
	}
	per := func(n int, f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0)) / float64(max(n, 1))
	}
	res.set("taxonomy.subsumes_ns", per(len(subs), func() {
		for _, p := range subs {
			snap.Subsumes(p[0], p[1])
		}
	}), len(subs))
	res.set("taxonomy.ancestors_us", per(len(one), func() {
		for _, a := range one {
			snap.Ancestors(a)
		}
	})/1e3, len(one))
	res.set("taxonomy.lca_us", per(len(two), func() {
		for _, p := range two {
			snap.LCA(p[0], p[1])
		}
	})/1e3, len(two))
	res.set("taxonomy.depth_ns", per(len(one), func() {
		for _, a := range one {
			snap.Depth(a)
		}
	}), len(one))
}
