package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"parowl"
	"parowl/internal/taxonomy"
)

// serveCorpus is one corpus of the serve workload and the offset of
// its generator seed from the workload seed.
type serveCorpus struct {
	corpus
	seedOff int64
	share   int // percent of the non-cold reads aimed at it
}

var (
	// serveWarm stay resident and take the reads; the edited corpus is
	// the last one.
	serveWarm = []serveCorpus{
		{corpus{ID: "wbbt", Profile: "WBbt.obo", Scale: 4, Format: parowl.FormatOBO}, 0, 50},
		{corpus{ID: "clemapa", Profile: "CLEMAPA", Scale: 4, Format: parowl.FormatOBO}, 1, 20},
		// Resubmitted during churn, alternating between two seeded
		// one-axiom edits of the generated corpus.
		{corpus{ID: "edit", Profile: "actpathway.obo", Scale: 8, Format: parowl.FormatOBO}, 2, 30},
	}
	// serveCold are two corpora of one profile and size, queried
	// alternately; the memory budget holds only one of them, so each
	// such query lands on an evicted entry and pays a reload.
	serveCold = []serveCorpus{
		{corpus{ID: "emap-a", Profile: "EMAP#EMAP", Scale: 8, Format: parowl.FormatOBO}, 3, 0},
		{corpus{ID: "emap-b", Profile: "EMAP#EMAP", Scale: 8, Format: parowl.FormatOBO}, 4, 0},
	}
)

const (
	serveSetups = 3      // set-ups per serve run; setup_s is their median
	readRate    = 1000.0 // req/s offered in the read and churn phases
	window      = 1000   // samples per p99 window: exactly 10 beyond the p99
	poolSize    = 4000   // requests in the read pool
	coldPool    = 200    // requests in the cold pool
	minSamples  = 5      // edits, cold reads and restarts per run, at least
)

// The phases' shares of the measured time, in twelfths. The gated
// metrics' phases get the most: capacity, edit and restart samples
// are the noisiest.
const (
	readShare     = 1.5
	coldShare     = 1.5
	capacityShare = 2
	editShare     = 2.5
	churnShare    = 1.5
	restartShare  = 3
)

// serveInputs is everything a serve run needs that does not depend on
// set-up: corpora, the two edits, references and the memory budget.
type serveInputs struct {
	warm, cold []built // warm[len-1] is the edited corpus, as first submitted
	editSrc    [2][]byte
	refs       map[string]*reference
	editRefs   [2]*reference
	budget     int64
	refTime    time.Duration
	compile    time.Duration // kernel compile of the first warm corpus
	kernelSize int           // bytes, first warm corpus
	dagSize    int           // bytes, first warm corpus
}

func (in *serveInputs) edit() built { return in.warm[len(in.warm)-1] }

// buildServe generates every serve corpus; the edited corpus carries
// edit 0.
func buildServe(editSrc [2][]byte) (warm, cold []built, err error) {
	for _, sc := range serveWarm {
		b, err := sc.build(corpusSeed + sc.seedOff)
		if err != nil {
			return nil, nil, err
		}
		warm = append(warm, b)
	}
	for _, sc := range serveCold {
		b, err := sc.build(corpusSeed + sc.seedOff)
		if err != nil {
			return nil, nil, err
		}
		cold = append(cold, b)
	}
	if editSrc[0] != nil {
		warm[len(warm)-1].Src = editSrc[0]
	}
	return warm, cold, nil
}

func prepareServe(ctx context.Context, seed int64) (*serveInputs, error) {
	in := &serveInputs{refs: map[string]*reference{}}
	var err error
	if in.warm, in.cold, err = buildServe(in.editSrc); err != nil {
		return nil, err
	}
	for _, b := range append(append([]built(nil), in.warm[:len(in.warm)-1]...), in.cold...) {
		ref, d, err := elReference(ctx, b)
		if err != nil {
			return nil, err
		}
		in.refs[b.ID], in.refTime = ref, in.refTime+d
	}
	edit := in.edit()
	base, _, err := elReference(ctx, edit)
	if err != nil {
		return nil, err
	}
	for v := range in.editSrc {
		sub, sup := pickEdit(base, seed+10+int64(v))
		if in.editSrc[v], err = oboEdit(edit.Src, sub, sup); err != nil {
			return nil, err
		}
		eb := edit
		eb.Src = in.editSrc[v]
		ref, d, err := elReference(ctx, eb)
		if err != nil {
			return nil, err
		}
		in.editRefs[v], in.refTime = ref, in.refTime+d
	}
	in.warm[len(in.warm)-1].Src = in.editSrc[0]
	// The budget holds every warm corpus (the larger edit) and one cold
	// corpus, but not both cold ones.
	var warmFP, editFP, coldMax, coldMin int64
	for i, b := range in.warm[:len(in.warm)-1] {
		fp, compile, k, dag := footprint(in.refs[b.ID])
		warmFP += fp
		if i == 0 {
			in.compile, in.kernelSize, in.dagSize = compile, k, dag
		}
	}
	for _, ref := range in.editRefs {
		fp, _, _, _ := footprint(ref)
		editFP = max(editFP, fp)
	}
	for i, b := range in.cold {
		fp, _, _, _ := footprint(in.refs[b.ID])
		if i == 0 {
			coldMax, coldMin = fp, fp
		}
		coldMax, coldMin = max(coldMax, fp), min(coldMin, fp)
	}
	in.budget = warmFP + editFP + coldMax + coldMin/2
	return in, nil
}

// footprint predicts the resident size owld charges for a corpus:
// its taxonomy plus the compiled kernel. The kernel is compiled from
// the reference without attaching it, so the reference stays
// kernel-free.
func footprint(ref *reference) (total int64, compile time.Duration, kernel, dag int) {
	t0 := time.Now()
	k := taxonomy.Compile(ref.tax)
	compile = time.Since(t0)
	kernel, dag = k.MemoryFootprint(), ref.tax.MemoryFootprint()
	return int64(kernel + dag), compile, kernel, dag
}

// servePool is the request pool of the read traffic, with the
// reference answers of every request (both edit generations for the
// edited ontology).
type servePool struct {
	reqs []request
	want [][2]expect
}

func newServePool(in *serveInputs, seed int64, n int, cold bool) (servePool, error) {
	rng := rand.New(rand.NewSource(seed))
	var warm, coldMix []*mixer
	for i, b := range in.warm {
		ref := in.refs[b.ID]
		if i == len(in.warm)-1 {
			ref = in.editRefs[0]
		}
		warm = append(warm, newMixer(b.ID, ref, seed+1+int64(i)))
	}
	for i, b := range in.cold {
		coldMix = append(coldMix, newMixer(b.ID, in.refs[b.ID], seed+11+int64(i)))
	}
	var p servePool
	for i := 0; i < n; i++ {
		var rq request
		if cold {
			rq = coldMix[i%len(coldMix)].next() // alternating, from the first
		} else {
			x := rng.Intn(100)
			for j, sc := range serveWarm {
				if x -= sc.share; x < 0 {
					rq = warm[j].next()
					break
				}
			}
		}
		var w [2]expect
		var err error
		if rq.Onto == in.edit().ID {
			for v := range w {
				if w[v], err = rq.expect(in.editRefs[v]); err != nil {
					return p, err
				}
			}
		} else if w[0], err = rq.expect(in.refs[rq.Onto]); err != nil {
			return p, err
		}
		p.reqs, p.want = append(p.reqs, rq), append(p.want, w)
	}
	return p, nil
}

// first returns the index of p's first single (unbatched) query on id.
func (p servePool) first(id string) int {
	for i, rq := range p.reqs {
		if rq.Onto == id && rq.Batch == nil {
			return i
		}
	}
	panic("no query on " + id)
}

// serveState is the running daemon and what the client knows about it.
type serveState struct {
	in       *serveInputs
	d        *daemon
	cl       *client
	dir      string
	variant  map[uint64]int // edit generation → which edit it serves
	editGen  uint64         // the edited entry's latest generation
	nextEdit int            // which edit the next resubmission carries
}

// setupServe boots a daemon on a fresh checkpoint dir and classifies
// every corpus through it. Cold corpora go first so they are the
// least recently used.
func setupServe(ctx context.Context, in *serveInputs, dir string) (*serveState, error) {
	warm, cold, err := buildServe(in.editSrc)
	if err != nil {
		return nil, err
	}
	subs := append(cold, warm...)
	for i, b := range subs {
		if want := append(append([]built(nil), in.cold...), in.warm...)[i]; string(b.Src) != string(want.Src) {
			return nil, fmt.Errorf("corpus generation is not deterministic")
		}
	}
	d, err := startDaemon(owldConfig(dir, in.budget))
	if err != nil {
		return nil, err
	}
	s := &serveState{in: in, d: d, cl: newClient(d.base), dir: dir, variant: map[uint64]int{}, nextEdit: 1}
	for _, b := range subs {
		if err := s.cl.submit(ctx, b.ID, b.Src); err != nil {
			return nil, err
		}
	}
	for _, b := range subs {
		st, err := s.cl.awaitClassified(ctx, b.ID, 1)
		if err != nil {
			return nil, err
		}
		if b.ID == in.edit().ID {
			s.variant[st.Generation], s.editGen = 0, st.Generation
		}
	}
	return s, nil
}

func (s *serveState) stop(ctx context.Context) error {
	s.cl.close()
	return s.d.stop(ctx)
}

// checkReply verifies one served answer against the reference of the
// generation it reports.
func (s *serveState) checkReply(p servePool, i int, r reply) error {
	rq, w := p.reqs[i], p.want[i][0]
	if rq.Onto == s.in.edit().ID {
		v, ok := s.variant[r.gen]
		if !ok {
			return fmt.Errorf("edit answer from unknown generation %d", r.gen)
		}
		w = p.want[i][v]
	}
	return rq.verify(w, r.lines, r.batch)
}

// phaseRun is one open-loop phase: its shots and the replies to check.
type phaseRun struct {
	shots   []shot
	replies []reply
}

// phase runs the pool open-loop at rate for dur. Answers are checked
// afterwards with check, once the generations they name are known.
func (s *serveState) phase(ctx context.Context, name string, p servePool, rate float64, dur time.Duration, tr *tracer) phaseRun {
	replies := make([]reply, int(rate*dur.Seconds()))
	phaseID, endPhase := tr.begin("phase."+name, 0, 0)
	shots, _ := openLoop(ctx, rate, dur, conns, func(_ context.Context, i int) error {
		var err error
		rq := p.reqs[i%len(p.reqs)]
		_, end := tr.begin("http."+opName(rq), phaseID, phaseID<<32|int64(i+1))
		replies[i], err = s.cl.query(ctx, rq)
		end()
		return err
	})
	endPhase()
	return phaseRun{shots, replies[:len(shots)]}
}

// check verifies every answer of a phase.
func (s *serveState) check(p servePool, pr phaseRun, res *result) {
	for i, sh := range pr.shots {
		res.outcome(orErr(sh.Err, func() error { return s.checkReply(p, i%len(p.reqs), pr.replies[i]) }))
	}
}

func opName(rq request) string {
	if rq.Batch != nil {
		return "subsumes_batch"
	}
	return rq.Q.Op
}

// until is the sampling rule of the serve phases: keep going until the
// phase's time is up, and for at least minSamples samples.
func until(end time.Time, n int) bool { return n < minSamples || time.Now().Before(end) }

// editTimes are one resubmission of the edited corpus.
type editTimes struct {
	ready, cpu, queue, job time.Duration
}

// edit resubmits the edited corpus with the other edit and waits until
// the daemon serves its new generation.
func (s *serveState) edit(ctx context.Context) (editTimes, error) {
	v := s.nextEdit
	cpu0, t0 := cpuTime(), time.Now()
	if err := s.cl.submit(ctx, s.in.edit().ID, s.in.editSrc[v]); err != nil {
		return editTimes{}, err
	}
	st, err := s.cl.awaitClassified(ctx, s.in.edit().ID, s.editGen+1)
	if err != nil {
		return editTimes{}, err
	}
	e := editTimes{time.Since(t0), cpuTime() - cpu0, st.StartedAt.Sub(st.SubmittedAt), st.FinishedAt.Sub(st.StartedAt)}
	s.editGen, s.variant[st.Generation], s.nextEdit = st.Generation, v, v^1
	return e, nil
}

// coldReads reads the cold corpora alternately, one request at a time,
// each after one read of every warm corpus. The warm corpora so stay the
// most recently used, and each cold read lands on the entry the previous
// one evicted and pays its reload. It returns each cold read's latency.
func (s *serveState) coldReads(ctx context.Context, read, cold servePool, dur time.Duration, res *result) []float64 {
	var lat []float64
	for end := time.Now().Add(dur); until(end, len(lat)); {
		s.touchWarm(ctx, read, res)
		t0 := time.Now()
		s.read(ctx, cold, len(lat)%len(cold.reqs), res)
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat
}

// read sends request i of p and checks its answer.
func (s *serveState) read(ctx context.Context, p servePool, i int, res *result) {
	r, err := s.cl.query(ctx, p.reqs[i])
	res.outcome(orErr(err, func() error { return s.checkReply(p, i, r) }))
}

// touchWarm reads every warm corpus once, making them the most recently
// used entries.
func (s *serveState) touchWarm(ctx context.Context, p servePool, res *result) {
	for _, b := range s.in.warm {
		s.read(ctx, p, p.first(b.ID), res)
	}
}

// capacity runs conns closed-loop callers over the subsumes requests of
// p for dur and returns the queries they complete per second of process
// CPU time, times GOMAXPROCS: the rate the host's CPUs sustain, client
// included, which unlike a wall-clock rate does not fall when the host
// steals CPU from the process. Only subsumes, the bulk of the mix, is
// driven, so the rate does not depend on which concepts a seed makes hot.
func (s *serveState) capacity(ctx context.Context, p servePool, dur time.Duration, res *result) float64 {
	var idx []int
	for i, rq := range p.reqs {
		if rq.Batch == nil && rq.Q.Op == "subsumes" {
			idx = append(idx, i)
		}
	}
	type answer struct {
		i   int
		r   reply
		err error
	}
	got := make([][]answer, conns)
	runtime.GC()
	stop := time.Now().Add(dur)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g; time.Now().Before(stop); k += conns {
				i := idx[k%len(idx)]
				r, err := s.cl.query(ctx, p.reqs[i])
				got[g] = append(got[g], answer{i, r, err})
			}
		}()
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	n := 0
	for _, as := range got {
		for _, a := range as {
			res.outcome(orErr(a.err, func() error { return s.checkReply(p, a.i, a.r) }))
		}
		n += len(as)
	}
	return float64(n) / cpu.Seconds() * float64(runtime.GOMAXPROCS(0))
}

func runServe(ctx context.Context, c config) (*result, error) {
	res := newResult()
	if c.Traced {
		res.tr = newTracer()
	}
	// References, expected answers and the memory budget come first,
	// outside set-up and outside every timed region.
	in, err := prepareServe(ctx, c.Seed)
	if err != nil {
		return nil, err
	}
	res.Corpora = append(append([]built(nil), in.warm...), in.cold...)
	readPool, err := newServePool(in, c.Seed+100, poolSize, false)
	if err != nil {
		return nil, err
	}
	coldReqs, err := newServePool(in, c.Seed+200, coldPool, true)
	if err != nil {
		return nil, err
	}
	// The pools hold every expected answer; dropping the references
	// keeps the benchmark's own live heap, and so its share of garbage
	// collection work, small during the phases.
	in.refs, in.editRefs = nil, [2]*reference{}

	rss := startRSS()
	defer rss.close()
	var setups []float64
	var s *serveState
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			if err := s.stop(ctx); err != nil {
				return nil, err
			}
			os.RemoveAll(s.dir)
		}
		runtime.GC()
		t0 := time.Now()
		s, err = setupServe(ctx, in, filepath.Join(c.WorkDir, fmt.Sprintf("owld-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups), len(setups))
	defer func() { s.stop(context.Background()) }()

	// Warm-up: read the first cold corpus, every warm one, the second
	// cold one and every warm one again, so the first cold corpus is the
	// evicted one when the cold phase starts with it.
	for _, cb := range in.cold {
		s.read(ctx, coldReqs, coldReqs.first(cb.ID), res)
		s.touchWarm(ctx, readPool, res)
	}

	share := func(twelfths float64) time.Duration { return time.Duration(float64(c.Seconds) * twelfths / 12) }
	h0, err := s.cl.health(ctx)
	if err != nil {
		return nil, err
	}
	settle()
	read := s.phase(ctx, "read", readPool, readRate, share(readShare), res.tr)
	s.check(readPool, read, res)

	h1, err := s.cl.health(ctx)
	if err != nil {
		return nil, err
	}
	settle()
	_, endCold := res.tr.begin("phase.cold", 0, 0)
	coldLat := s.coldReads(ctx, readPool, coldReqs, share(coldShare), res)
	endCold()
	h2, err := s.cl.health(ctx)
	if err != nil {
		return nil, err
	}

	settle()
	_, endCapacity := res.tr.begin("phase.capacity", 0, 0)
	maxRPS := s.capacity(ctx, readPool, share(capacityShare), res)
	endCapacity()

	// Edit: one writer resubmits the edited corpus, alternating its two
	// edits, with no other traffic.
	settle()
	_, endEdit := res.tr.begin("phase.edit", 0, 0)
	var edits []editTimes
	for end := time.Now().Add(share(editShare)); until(end, len(edits)); {
		e, err := s.edit(ctx)
		if err != nil {
			return nil, err
		}
		edits = append(edits, e)
	}
	endEdit()

	// Churn: the read phase's traffic while the writer keeps editing.
	settle()
	var churnEdits []editTimes
	stopWriter := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopWriter:
				writerErr <- nil
				return
			default:
			}
			e, err := s.edit(ctx)
			if err != nil {
				writerErr <- err
				return
			}
			churnEdits = append(churnEdits, e)
		}
	}()
	churn := s.phase(ctx, "churn", readPool, readRate, share(churnShare), res.tr)
	close(stopWriter)
	if err := <-writerErr; err != nil {
		return nil, err
	}
	s.check(readPool, churn, res)

	// Restart: drain, then boot a fresh daemon on the same dir, and again.
	settle()
	var restart []float64
	for end := time.Now().Add(share(restartShare)); until(end, len(restart)); {
		if err := s.stop(ctx); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		d, err := startDaemon(owldConfig(s.dir, in.budget))
		if err != nil {
			return nil, err
		}
		s.d, s.cl = d, newClient(d.base)
		if err := s.cl.awaitReady(ctx); err != nil {
			return nil, err
		}
		restart = append(restart, time.Since(t0).Seconds())
	}
	for i := 0; i < 200; i++ {
		s.read(ctx, readPool, i, res)
	}

	readLat, readSvc, readLate, _ := shotStats(read.shots)
	churnLat, _, _, _ := shotStats(churn.shots)
	var ready, cpu, queue, job, churnReady []float64
	for _, e := range edits {
		ready = append(ready, e.ready.Seconds())
		cpu = append(cpu, e.cpu.Seconds())
		queue = append(queue, e.queue.Seconds())
		job = append(job, e.job.Seconds())
	}
	for _, e := range churnEdits {
		churnReady = append(churnReady, e.ready.Seconds())
	}
	res.note("edit_ready_s (= classify_s on serve): %.4g s over %d edits; %.4g s over %d edits during churn",
		median(ready), len(ready), median(churnReady), len(churnReady))
	res.note("cold phase: %d cold reads; reloads %d, evictions %d",
		len(coldLat), h2.Reloads-h1.Reloads, h2.Evictions-h1.Evictions)

	if c.Traced {
		res.set("baseline.seq_s", in.refTime.Seconds(), 1)
		res.set("taxonomy.kernel_compile_s", in.compile.Seconds(), 1)
		res.set("taxonomy.kernel_mb", float64(in.kernelSize)/1e6, 0)
		res.set("taxonomy.dag_mb", float64(in.dagSize)/1e6, 0)
		svc := summarize(readSvc)
		res.set("server.svc_p50_ms", svc.Median, svc.N)
		if v, ok := pct(readSvc, 99); ok {
			res.set("server.svc_p99_ms", v, svc.N)
		}
		res.set("server.queue_wait_s", median(queue), len(queue))
		res.set("server.job_s", median(job), len(job))
		res.set("server.evictions", float64(h2.Evictions-h1.Evictions), 0)
		res.set("server.reloads", float64(h2.Reloads-h1.Reloads), 0)
		res.set("server.reload_frac", float64(h2.Reloads-h1.Reloads)/float64(len(coldLat)), 0)
		res.set("server.coalesced", float64(h2.Coalesced-h0.Coalesced), 0)
		res.set("server.resident_mb", float64(h1.ResidentBytes)/1e6, 0)
		late := summarize(readLate)
		res.set("driver.late_p50_ms", late.Median, late.N)
		if v, ok := pct(readLate, 99); ok {
			res.set("driver.late_p99_ms", v, late.N)
		}
		if err := serveDirect(ctx, s, readPool, read.shots, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	res.set("classify_s", median(ready), len(ready))
	res.set("classify_cpu_s", median(cpu), len(cpu))
	res.set("peak_rss_mb", rss.take(), 0)
	res.set("query_p50_ms", median(readLat), len(readLat))
	p99, nw := windowP99(readLat, window)
	res.set("query_p99_ms", p99, len(readLat))
	cp99, cw := windowP99(churnLat, window)
	res.set("churn_query_p99_ms", cp99, len(churnLat))
	res.note("query_p99_ms and churn_query_p99_ms are medians of %d and %d per-%d-request p99s", nw, cw, window)
	res.set("query_max_rps", maxRPS, 0)
	noteTail(res, "read latency", readLat)
	noteTail(res, "churn latency", churnLat)
	noteTail(res, "cold-read latency", coldLat)
	restartMS := make([]float64, len(restart))
	for i, v := range restart {
		restartMS[i] = v * 1e3
	}
	noteTail(res, "restart to ready", restartMS)
	res.set("reload_query_ms", median(coldLat), len(coldLat))
	res.set("restart_ready_s", median(restart), len(restart))
	return res, nil
}

// serveDirect measures, from in-process handles re-adopted from the
// daemon's checkpoints, what the HTTP path adds: parse and adoption
// cost, direct kernel calls, and service time minus direct evaluation.
func serveDirect(ctx context.Context, s *serveState, p servePool, read []shot, res *result) error {
	hot := s.in.warm[0]
	ck := filepath.Join(s.dir, hot.ID+".ck")
	fi, err := os.Stat(ck)
	if err != nil {
		return err
	}
	res.set("checkpoint.mb", float64(fi.Size())/1e6, 0)
	eng := parowl.NewEngine()
	var parse, adopt []float64
	var snap *parowl.Snapshot
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		ont, err := hot.load(eng)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := ont.Adopt(ctx, ck); err != nil {
			return err
		}
		parse = append(parse, t1.Sub(t0).Seconds())
		adopt = append(adopt, time.Since(t1).Seconds())
		if snap, err = ont.Snapshot(); err != nil {
			return err
		}
	}
	res.set("parse.s", median(parse), len(parse))
	res.set("parse.mb_per_s", float64(len(hot.Src))/1e6/median(parse), len(parse))
	res.set("checkpoint.adopt_s", median(adopt), len(adopt))

	var direct, svc []float64
	var rs reqSet
	for i, sh := range read {
		rq := p.reqs[i%len(p.reqs)]
		if rq.Onto != hot.ID || rq.Batch != nil || sh.Err != nil {
			continue
		}
		t0 := time.Now()
		lines, err := snap.EvalSpec(ctx, rq.Spec)
		direct = append(direct, float64(time.Since(t0))/1e3)
		res.outcome(orErr(err, func() error { return rq.verify(p.want[i%len(p.reqs)][0], lines, nil) }))
		svc = append(svc, float64(sh.Service())/1e3)
		rs.reqs = append(rs.reqs, rq)
	}
	res.set("server.overhead_us", median(svc)-median(direct), len(svc))
	directQueries(snap, rs, res)
	return nil
}

// settle starts a phase from a quiet process and host: it flushes the
// checkpoints earlier phases wrote, so the kernel's writeback does not
// compete with the phase for the CPUs, and collects garbage.
func settle() {
	syscall.Sync()
	runtime.GC()
}
