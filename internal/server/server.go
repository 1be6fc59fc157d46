package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parowl"
)

// Config configures a Server. The zero value works: a default Engine,
// no checkpointing, a 16-deep admission queue, and two concurrent
// classify jobs.
type Config struct {
	// Engine supplies reasoner selection and the base classification
	// Options for every submitted ontology; nil means parowl.NewEngine().
	Engine *parowl.Engine
	// CheckpointDir, when non-empty, gives every classify job a
	// checkpoint file <dir>/<id>.ck: jobs snapshot at phase boundaries,
	// a drained or crashed job resumes from its last snapshot on the
	// next submission, and a completed job's final snapshot lets a
	// server restart re-adopt the entry without reclassifying it.
	CheckpointDir string
	// CheckpointInterval is the minimum time between snapshots; ≤ 0
	// writes at every phase boundary.
	CheckpointInterval time.Duration
	// QueueDepth bounds the classify admission queue; a submit arriving
	// with the queue full is rejected with 429 + Retry-After. 0 means 16.
	QueueDepth int
	// ClassifyJobs is the number of classify jobs run concurrently
	// (each with its own worker pool per the Engine's Options). 0 means 2.
	ClassifyJobs int
	// ClassifyTimeout caps each classify job's wall time; a submit's
	// ?timeout= parameter overrides it per job. 0 means no cap.
	ClassifyTimeout time.Duration
	// RequestTimeout is the default deadline for query requests (the
	// ?timeout= parameter overrides it per request); it maps onto the
	// context every kernel evaluation checks. 0 means 30s.
	RequestTimeout time.Duration
	// DrainGrace is how long Drain waits for in-flight classify jobs to
	// finish on their own before cancelling them (their checkpoints make
	// the cancellation resumable). 0 means cancel immediately.
	DrainGrace time.Duration
	// MaxBodyBytes bounds submitted ontology documents. 0 means 64 MiB.
	MaxBodyBytes int64
	// MaxResidentBytes budgets the summed MemoryFootprint of warm
	// classified state. When exceeded, least-recently-queried entries are
	// evicted to their on-disk checkpoints and transparently re-adopted on
	// the next query (see memory.go). 0 means unlimited. Requires
	// CheckpointDir (eviction without a reload path would break queries).
	MaxResidentBytes int64
	// RetryBudget is how many times a transiently-failed classify job
	// (chaos fault, job timeout — not a parse or validation error) is
	// automatically requeued with exponential backoff before the entry is
	// marked failed. 0 disables retries.
	RetryBudget int
	// RetryBaseDelay is the first backoff delay; attempt i waits
	// RetryBaseDelay·2^i, capped at RetryMaxDelay. 0 means 500ms.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the exponential backoff. 0 means 30s.
	RetryMaxDelay time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Server is the owld HTTP daemon: an ontology registry with async,
// admission-controlled classification and a query surface served from
// warm classified state. Create with New, serve with net/http, stop with
// Drain.
//
//	POST /ontologies?id=ID&format=obo      submit (body = ontology text;
//	                                       &sched= overrides the scheduling
//	                                       policy for this job)
//	GET  /ontologies                       list
//	GET  /ontologies/{id}                  status + stats
//	GET  /ontologies/{id}/taxonomy         rendered taxonomy (text)
//	GET  /ontologies/{id}/query?q=SPEC     evaluate query spec (text)
//	POST /ontologies/{id}/subsumes         batched subsumption pairs (JSON)
//	DELETE /ontologies/{id}                remove entry + on-disk artifacts
//	GET  /healthz                          liveness + queue/memory state
//	GET  /readyz                           readiness (503 while draining or
//	                                       before manifest re-adoption ends)
type Server struct {
	cfg Config
	mux *http.ServeMux
	reg *registry

	queue    chan *job
	quit     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	drained  sync.Once

	// ready flips once boot-time manifest re-adoption has finished;
	// /readyz serves 503 before that (and while draining).
	ready atomic.Bool
	// manifestMu serializes manifest rewrites (see manifest.go).
	manifestMu sync.Mutex
	// evictMu serializes eviction scans (see memory.go).
	evictMu sync.Mutex

	// retryMu guards the pending retry timers keyed by ontology id.
	retryMu sync.Mutex
	retries map[string]*time.Timer

	// flights coalesces identical in-flight /query evaluations.
	flights flightGroup
	// onQueryEval, when non-nil, runs inside the coalescing leader before
	// the evaluation (test hook; set only from in-package tests).
	onQueryEval func(key string)

	evictions atomic.Int64
	reloads   atomic.Int64
	coalesced atomic.Int64
}

// job is one admitted classification request.
type job struct {
	entry   *entry
	ont     *parowl.Ontology
	timeout time.Duration
	// sched overrides the Engine's scheduling policy for this job when
	// schedSet is true (the submit carried a ?sched= parameter).
	sched    parowl.Scheduling
	schedSet bool
	// attempt counts prior transient failures of this submission; it
	// drives the exponential backoff and the retry budget.
	attempt int
}

// New builds a Server and starts its classify workers.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		cfg.Engine = parowl.NewEngine()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.ClassifyJobs <= 0 {
		cfg.ClassifyJobs = 2
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 500 * time.Millisecond
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: checkpoint dir: %w", err)
		}
	}
	if cfg.MaxResidentBytes > 0 && cfg.CheckpointDir == "" {
		cfg.Logf("owld: -max-resident-bytes ignored without a checkpoint dir (no reload path for evicted entries)")
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		reg:     newRegistry(),
		queue:   make(chan *job, cfg.QueueDepth),
		quit:    make(chan struct{}),
		retries: make(map[string]*time.Timer),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("POST /ontologies", s.handleSubmit)
	s.mux.HandleFunc("GET /ontologies", s.handleList)
	s.mux.HandleFunc("GET /ontologies/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /ontologies/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /ontologies/{id}/taxonomy", s.handleTaxonomy)
	s.mux.HandleFunc("GET /ontologies/{id}/query", s.handleQuery)
	s.mux.HandleFunc("POST /ontologies/{id}/query", s.handleQuery)
	s.mux.HandleFunc("POST /ontologies/{id}/subsumes", s.handleSubsumes)
	for i := 0; i < cfg.ClassifyJobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Boot-time re-adoption: replay the durable manifest, restoring warm
	// classified state from checkpoints with zero reclassification. Any
	// manifest problem degrades (per entry where possible) — a daemon
	// never fails to boot because of its own durable state.
	var manifest []manifestEntry
	if cfg.CheckpointDir != "" {
		var err error
		manifest, err = loadManifest(filepath.Join(cfg.CheckpointDir, manifestName))
		if err != nil {
			cfg.Logf("owld: manifest unusable, booting with an empty registry: %v", err)
		}
	}
	if len(manifest) == 0 {
		s.ready.Store(true)
	} else {
		cfg.Logf("owld: re-adopting %d registry entries from manifest", len(manifest))
		go s.readoptAll(manifest)
	}
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain performs a graceful shutdown of the classification side: new
// submissions are rejected, queued-but-unstarted jobs are marked
// interrupted, and in-flight jobs get DrainGrace to finish before their
// contexts are cancelled — a cancelled job's last phase-boundary
// checkpoint stays on disk, so resubmitting after a restart resumes
// instead of restarting. Drain returns once every worker has stopped or
// ctx expires. Queries are not touched; the HTTP listener's own
// Shutdown decides when those stop.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	s.drained.Do(func() {
		close(s.quit)
		// Pending backoff retries: stop their timers and mark the entries
		// interrupted (their checkpoints, if any, stay resumable). A timer
		// that already fired is handling the drain itself in enqueueRetry.
		s.retryMu.Lock()
		timers := s.retries
		s.retries = make(map[string]*time.Timer)
		s.retryMu.Unlock()
		for id, t := range timers {
			if t.Stop() {
				if e := s.reg.get(id); e != nil {
					e.markDone(nil, nil, 0, errors.New("server drained before retry"), true)
				}
			}
		}
		// Queued jobs that never started: hand back their admission
		// slots and mark them interrupted (no checkpoint yet — a
		// resubmission simply classifies from scratch).
	flush:
		for {
			select {
			case j := <-s.queue:
				j.entry.markDone(nil, nil, 0, errors.New("server drained before classification started"), true)
			default:
				break flush
			}
		}
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		if s.cfg.DrainGrace > 0 {
			grace := time.NewTimer(s.cfg.DrainGrace)
			defer grace.Stop()
			select {
			case <-done:
				return
			case <-grace.C:
			case <-ctx.Done():
			}
		}
		s.cfg.Logf("owld: drain: cancelling in-flight classification jobs (checkpoints remain resumable)")
		s.reg.abortAll()
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
		}
		// Final manifest: record the drained states so the next boot
		// re-adopts classified entries and resumes interrupted ones.
		s.persist()
	})
	return err
}

// worker runs classify jobs from the admission queue until drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob classifies one admitted ontology, resuming from (and writing)
// its checkpoint when a checkpoint dir is configured, and swaps the
// entry's warm serving state on success.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	timeout := j.timeout
	if timeout <= 0 {
		timeout = s.cfg.ClassifyTimeout
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	}
	defer cancel()

	opts := s.cfg.Engine.Options()
	opts.CompileKernel = true // the query surface serves from the kernel
	if j.schedSet {
		opts.Scheduling = j.sched
	}
	var ck string
	if s.cfg.CheckpointDir != "" {
		ck = filepath.Join(s.cfg.CheckpointDir, j.entry.id+".ck")
		opts.Checkpoint = ck
		opts.CheckpointInterval = s.cfg.CheckpointInterval
		if _, err := os.Stat(ck); err == nil {
			opts.ResumeFrom = ck
		}
	}
	j.entry.markClassifying(cancel, ck, opts.Scheduling.String())
	s.persist()
	s.cfg.Logf("owld: classify %s: started (sched=%v resume=%v attempt=%d)", j.entry.id, opts.Scheduling, opts.ResumeFrom != "", j.attempt+1)

	start := time.Now()
	res, err := j.ont.ClassifyWith(ctx, opts)
	if err != nil {
		interrupted := errors.Is(err, context.Canceled) || s.draining.Load()
		if !interrupted && transientClassifyErr(err) && j.attempt < s.cfg.RetryBudget {
			attempt := j.attempt + 1
			j.attempt = attempt
			delay := retryBackoff(s.cfg, attempt)
			j.entry.markRetryWait(err, attempt, time.Now().Add(delay))
			s.persist()
			s.cfg.Logf("owld: classify %s: transient failure (attempt %d/%d), retrying in %v: %v",
				j.entry.id, attempt, s.cfg.RetryBudget+1, delay, err)
			// Last touch of j: once the timer is armed another worker may
			// own the job.
			s.scheduleRetry(j, delay)
			return
		}
		j.entry.markDone(nil, nil, 0, err, interrupted)
		s.persist()
		s.cfg.Logf("owld: classify %s: %s: %v", j.entry.id, map[bool]string{true: "interrupted", false: "failed"}[interrupted], err)
		return
	}
	if res.ResumeError != nil {
		s.cfg.Logf("owld: classify %s: checkpoint not resumable, classified from scratch: %v", j.entry.id, res.ResumeError)
	}
	if res.CheckpointError != nil {
		s.cfg.Logf("owld: classify %s: checkpoint writes failed: %v", j.entry.id, res.CheckpointError)
	}
	var footprint int64
	if snap, err := j.ont.Snapshot(); err == nil {
		footprint = snap.MemoryFootprint()
	}
	j.entry.markDone(j.ont, res, footprint, nil, false)
	// Re-enforce the memory budget before the manifest fsync: the entry
	// already reads classified, and eviction state is not in the manifest.
	s.maybeEvict()
	s.persist()
	s.cfg.Logf("owld: classify %s: done in %v (%d classes, %d subs tests, resumed=%v)",
		j.entry.id, time.Since(start).Round(time.Millisecond), res.Taxonomy.NumClasses(), res.Stats.SubsTests, res.Resumed)
}

// transientClassifyErr reports whether a classify failure is worth an
// automatic retry: injected chaos faults and job deadline expiries are
// transient; everything else (validation errors, genuine plug-in
// failures) fails the entry immediately. Parse errors never get here —
// submission parses synchronously before admission.
func transientClassifyErr(err error) bool {
	return errors.Is(err, parowl.ErrChaosFault) || errors.Is(err, context.DeadlineExceeded)
}

// retryBackoff is the capped exponential schedule: attempt i (1-based)
// waits RetryBaseDelay·2^(i-1), capped at RetryMaxDelay.
func retryBackoff(cfg Config, attempt int) time.Duration {
	d := cfg.RetryBaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cfg.RetryMaxDelay {
			return cfg.RetryMaxDelay
		}
	}
	return min(d, cfg.RetryMaxDelay)
}

// scheduleRetry arms the backoff timer that requeues j. Drain stops
// pending timers and marks their entries interrupted.
func (s *Server) scheduleRetry(j *job, delay time.Duration) {
	s.retryMu.Lock()
	defer s.retryMu.Unlock()
	if s.draining.Load() {
		j.entry.markDone(nil, nil, 0, errors.New("server drained before retry"), true)
		return
	}
	s.retries[j.entry.id] = time.AfterFunc(delay, func() { s.enqueueRetry(j) })
}

// enqueueRetry moves a backoff-expired job back into the admission
// queue. A full queue re-arms the timer without consuming an attempt; a
// draining server marks the entry interrupted.
func (s *Server) enqueueRetry(j *job) {
	s.retryMu.Lock()
	delete(s.retries, j.entry.id)
	s.retryMu.Unlock()
	if s.draining.Load() {
		j.entry.markDone(nil, nil, 0, errors.New("server drained before retry"), true)
		s.persist()
		return
	}
	select {
	case s.queue <- j:
	default:
		s.cfg.Logf("owld: classify %s: admission queue full at retry time, backing off again", j.entry.id)
		s.scheduleRetry(j, retryBackoff(s.cfg, j.attempt))
	}
}

// idPattern bounds submitted ontology IDs: they name checkpoint files.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$`)

// handleSubmit admits one ontology for (re)classification: parse
// synchronously, then enqueue the classify job or reject with 429 when
// the admission queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("ontology document exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	format, err := parowl.ParseFormat(r.FormValue("format"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	var timeout time.Duration
	if v := r.FormValue("timeout"); v != "" {
		timeout, err = time.ParseDuration(v)
		if err != nil || timeout < 0 {
			writeErr(w, http.StatusBadRequest, "bad timeout: "+v)
			return
		}
	}
	var sched parowl.Scheduling
	schedSet := false
	if v := r.FormValue("sched"); v != "" {
		sched, err = parowl.ParseScheduling(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		schedSet = true
	}
	id := r.FormValue("id")
	if id == "" {
		h := fnv.New64a()
		h.Write([]byte(format.String()))
		h.Write(body)
		id = fmt.Sprintf("x%016x", h.Sum64())
	}
	if !idPattern.MatchString(id) {
		writeErr(w, http.StatusBadRequest, "bad id: want [A-Za-z0-9][A-Za-z0-9._-]{0,99}")
		return
	}
	name := r.FormValue("name")
	if name == "" {
		name = id
	}
	ont, err := s.cfg.Engine.Load(strings.NewReader(string(body)), name, format)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "parsing ontology: "+err.Error())
		return
	}

	e := s.reg.getOrCreate(id)
	e.mu.Lock()
	if e.inFlightLocked() {
		e.mu.Unlock()
		writeErr(w, http.StatusConflict, "classification already in flight for "+id)
		return
	}
	// Holding e.mu across the (non-blocking) send makes the in-flight
	// check and the admission one atomic step: two racing submits for the
	// same id cannot both be admitted, and a worker dequeuing this job
	// blocks on e.mu until the queued state is visible.
	select {
	case s.queue <- &job{entry: e, ont: ont, timeout: timeout, sched: sched, schedSet: schedSet}:
		e.queuedLocked(name)
		e.format = format
		e.fingerprint = ont.Fingerprint()
		e.mu.Unlock()
	default:
		e.mu.Unlock()
		s.reg.removeIfEmpty(id)
		// Admission control: the classify queue is full. Load-shed with
		// 429 and a Retry-After scaled to the backlog.
		w.Header().Set("Retry-After", strconv.Itoa(1+len(s.queue)/max(1, s.cfg.ClassifyJobs)))
		writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("classify queue full (%d queued)", len(s.queue)))
		return
	}
	// Persist the source document beside the checkpoint: restarts and
	// demand reloads re-parse it and fingerprint-check it against the
	// manifest before adopting the checkpoint. A write failure only costs
	// durability for this entry (logged), never the admission.
	if s.cfg.CheckpointDir != "" {
		srcPath := filepath.Join(s.cfg.CheckpointDir, id+".src")
		if err := writeFileAtomic(srcPath, body); err != nil {
			s.cfg.Logf("owld: submit %s: source persist failed (entry will not survive a restart): %v", id, err)
		} else {
			e.mu.Lock()
			e.srcPath = srcPath
			e.mu.Unlock()
		}
	}
	s.persist()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(e.info())
}

// handleDelete removes an ontology from the registry along with its
// on-disk artifacts (checkpoint and persisted source). An
// in-flight entry must finish (or be drained) first: 409.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := s.reg.get(id)
	if e == nil {
		writeErr(w, http.StatusNotFound, "unknown ontology "+id)
		return
	}
	e.mu.Lock()
	if e.inFlightLocked() {
		e.mu.Unlock()
		writeErr(w, http.StatusConflict, "classification in flight for "+id+"; retry after it finishes")
		return
	}
	paths := []string{e.checkpoint, e.srcPath}
	e.mu.Unlock()
	s.reg.remove(id)
	for _, p := range paths {
		if p == "" {
			continue
		}
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			s.cfg.Logf("owld: delete %s: removing %s: %v", id, p, err)
		}
	}
	s.persist()
	s.cfg.Logf("owld: delete %s: entry and artifacts removed", id)
	w.WriteHeader(http.StatusNoContent)
}

// handleReady is the readiness probe: 503 before boot-time manifest
// re-adoption finishes and while draining, 200 otherwise. Liveness
// (/healthz) stays 200 through both — the process is healthy, it just
// should not receive traffic yet/anymore.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ready := s.ready.Load() && !s.draining.Load()
	if !ready {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, map[string]any{
		"ready":    ready,
		"adopting": !s.ready.Load(),
		"draining": s.draining.Load(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"draining":   s.draining.Load(),
		"queued":     len(s.queue),
		"ontologies": s.reg.list(),
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	e := s.reg.get(r.PathValue("id"))
	if e == nil {
		writeErr(w, http.StatusNotFound, "unknown ontology "+r.PathValue("id"))
		return
	}
	writeJSON(w, e.info())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":             "ok",
		"ready":              s.ready.Load() && !s.draining.Load(),
		"draining":           s.draining.Load(),
		"queued":             len(s.queue),
		"ontologies":         len(s.reg.list()),
		"resident_bytes":     s.residentBytes(),
		"max_resident_bytes": s.cfg.MaxResidentBytes,
		"evictions":          s.evictions.Load(),
		"reloads":            s.reloads.Load(),
		"coalesced_queries":  s.coalesced.Load(),
	})
}

// servingSnapshot resolves an id to its query-ready snapshot and the
// generation that snapshot belongs to, writing the HTTP error itself when
// there is none yet. Evicted entries pay a demand reload here (see
// memory.go).
func (s *Server) servingSnapshot(w http.ResponseWriter, id string) (*parowl.Snapshot, uint64, bool) {
	e := s.reg.get(id)
	if e == nil {
		writeErr(w, http.StatusNotFound, "unknown ontology "+id)
		return nil, 0, false
	}
	snap, gen, err := s.residentSnapshot(e)
	if err != nil {
		// Classified state does not exist yet (first classification still
		// queued, running, failed, or interrupted): tell the client to
		// come back rather than serving a half-built taxonomy.
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusConflict,
			fmt.Sprintf("ontology %s not classified yet (status %s)", id, e.info().Status))
		return nil, 0, false
	}
	return snap, gen, true
}

func (s *Server) handleTaxonomy(w http.ResponseWriter, r *http.Request) {
	snap, gen, ok := s.servingSnapshot(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Parowl-Generation", strconv.FormatUint(gen, 10))
	io.WriteString(w, snap.Taxonomy().Render())
}

// requestCtx applies the per-request deadline (?timeout= or the
// configured default) to the request context.
func (s *Server) requestCtx(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	d := s.cfg.RequestTimeout
	if v := r.FormValue("timeout"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil || parsed <= 0 {
			writeErr(w, http.StatusBadRequest, "bad timeout: "+v)
			return nil, nil, false
		}
		d = parsed
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, true
}

// handleQuery evaluates a semicolon-separated query spec (?q= or the
// POST body) against the warm kernel, one text line per query — the
// same evaluator and formatting as `owlclass -query`, so answers are
// byte-identical across the two front ends.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	spec := r.FormValue("q")
	if spec == "" && r.Method == http.MethodPost {
		b, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeErr(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
		spec = string(b)
	}
	if strings.TrimSpace(spec) == "" {
		writeErr(w, http.StatusBadRequest, "empty query spec (use ?q=subsumes:A,B;ancestors:C)")
		return
	}
	snap, gen, ok := s.servingSnapshot(w, r.PathValue("id"))
	if !ok {
		return
	}
	ctx, cancel, ok := s.requestCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	// Coalesce identical in-flight evaluations: requests for the same
	// (ontology, generation, spec) ride one kernel sweep. The generation
	// in the key is the entry generation of snap — stable across
	// evict/reload, so coalesced answers are byte-identical by
	// construction.
	key := r.PathValue("id") + "\x00" + strconv.FormatUint(gen, 10) + "\x00" + spec
	lines, err, shared := s.flights.do(ctx, key, func() ([]string, error) {
		if s.onQueryEval != nil {
			s.onQueryEval(key)
		}
		return snap.EvalSpec(ctx, spec)
	})
	if shared {
		s.coalesced.Add(1)
	}
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeErr(w, http.StatusGatewayTimeout, "query deadline exceeded")
		return
	default:
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Parowl-Generation", strconv.FormatUint(gen, 10))
	io.WriteString(w, strings.Join(lines, "\n")+"\n")
}

// subsumesRequest is the JSON body of POST /ontologies/{id}/subsumes:
// pairs of [sup, sub] concept names, each asking sub ⊑ sup.
type subsumesRequest struct {
	Pairs [][2]string `json:"pairs"`
}

// handleSubsumes answers a batch of subsumption pairs in one request;
// pairs sharing a subject are answered against a single kernel
// ancestor-row sweep.
func (s *Server) handleSubsumes(w http.ResponseWriter, r *http.Request) {
	var req subsumesRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON body: "+err.Error())
		return
	}
	if len(req.Pairs) == 0 {
		writeErr(w, http.StatusBadRequest, `empty batch (want {"pairs": [["Sup","Sub"], ...]})`)
		return
	}
	snap, gen, ok := s.servingSnapshot(w, r.PathValue("id"))
	if !ok {
		return
	}
	ctx, cancel, ok := s.requestCtx(w, r)
	if !ok {
		return
	}
	defer cancel()
	if err := ctx.Err(); err != nil {
		writeErr(w, http.StatusGatewayTimeout, "query deadline exceeded")
		return
	}
	results, err := snap.SubsumesBatch(req.Pairs)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("X-Parowl-Generation", strconv.FormatUint(gen, 10))
	writeJSON(w, map[string]any{"results": results})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
