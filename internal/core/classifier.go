package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"parowl/internal/bitset"
	"parowl/internal/dl"
	"parowl/internal/reasoner"
	"parowl/internal/taxonomy"
)

// Mode selects between the paper's two algorithm variants.
type Mode int

// Classification modes.
const (
	// Optimized is Section IV: single-sided pair storage, symmetric
	// subsumption tests, and K-based pruning (Algorithm 5).
	Optimized Mode = iota
	// Basic is Section III as published: directional P sets and
	// single-direction tests (Algorithms 1-4), no pruning.
	Basic
)

func (m Mode) String() string {
	if m == Basic {
		return "basic"
	}
	return "optimized"
}

// Options configures a classification run. The zero value (plus a
// Reasoner) is the paper's algorithm: optimized mode, round-robin
// scheduling, GOMAXPROCS workers, two random-division cycles, no
// cheap-first pipeline. parowl.NewEngine's default template adds
// ELPrepass and ModelFilter.
type Options struct {
	// Reasoner is the plug-in deciding sat?/subs?; required.
	Reasoner reasoner.Interface
	// Workers is the pool size w; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// RandomCycles is the number of random-division cycles before the
	// group-division phase; 0 means 2. (Fig. 11 uses 10.)
	RandomCycles int
	// Seed drives the random shuffles; runs with equal seeds dispatch
	// identical groups. The final taxonomy is seed-independent.
	Seed int64
	// Mode selects Optimized (default) or Basic.
	Mode Mode
	// Scheduling selects RoundRobin (default, the paper's policy) or
	// Async (barrier-free: Chase–Lev deques with hardness-ordered LPT
	// dispatch, streamed continuously and quiescing only at phase edges
	// and due checkpoints; see pool.go and async.go). The taxonomy is
	// identical under both.
	Scheduling Scheduling
	// CollectTrace records per-cycle statistics and task durations.
	CollectTrace bool
	// ELPrepass enables stage 1 of the cheap-first subsumption pipeline:
	// before random division, the EL-expressible fragment of the TBox is
	// saturated (internal/el) and every proven subsumption and
	// unsatisfiability is streamed into K/satState, stripping the decided
	// pairs from P (see prepass.go). When the whole TBox is EL the
	// fragment is complete and the prepass decides every pair itself: no
	// plug-in call follows, and a run not resumed from a snapshot builds
	// no P or K at all, phase 3 reading the saturation's rows instead.
	// Sound for any TBox — the fragment's axioms
	// are entailed by the TBox's, so its conclusions are too — and the
	// taxonomy is identical with or without it. Savings are reported in
	// Stats.PreSeeded.
	ELPrepass bool
	// ModelFilter enables stage 2 of the pipeline: when the plug-in
	// offers the optional reasoner.RowFilter capability (found through
	// reasoner.AsRowFilter), the prepass settles every concept's sat?
	// and builds one disproof row per concept still in an open pair, and
	// a "definitely not subsumed" bit skips the full subs? test. Ignored
	// for plug-ins without the capability. Savings are reported in
	// Stats.FilterHits.
	ModelFilter bool
	// TestTimeout bounds each individual sat?/subs? plug-in call. A call
	// that exceeds its budget is retried with the budget doubled, up to
	// TestRetries times; when the final attempt also times out the test
	// is abandoned, counted in Stats.TimedOut, and listed in
	// Result.Undecided — the run itself keeps going and stays sound
	// (only proven subsumptions enter the taxonomy). 0 disables the
	// budget.
	TestTimeout time.Duration
	// TestRetries is the number of escalating retries a timed-out test
	// receives before it is abandoned (attempt i gets TestTimeout·2ⁱ).
	// Only meaningful with TestTimeout > 0; Validate rejects it
	// otherwise.
	TestRetries int
	// Checkpoint, when non-empty, is a file path the run periodically
	// snapshots its shared state to (atomic rename, see checkpoint.go).
	// Snapshots are taken only at phase/batch boundaries, so every
	// on-disk snapshot is consistent and resumable. A finished run writes
	// one last snapshot of its hierarchy; a run that ELPrepass decides
	// from a complete fragment without a resumed snapshot has no P or K
	// to snapshot and writes only that one. A write failure never fails
	// the run; it is reported in Result.CheckpointError.
	Checkpoint string
	// CheckpointInterval is the minimum time between snapshots. ≤ 0
	// writes a snapshot at every boundary (useful for tests; production
	// runs should use ~1s to keep overhead negligible).
	CheckpointInterval time.Duration
	// CompileKernel compiles the taxonomy's bit-matrix query kernel
	// (taxonomy.Compile) after classification, attaching it so every
	// subsequent query (Subsumes/Ancestors/Descendants/LCA/Depth) runs on
	// dense closure matrices instead of pointer-chasing the DAG. The
	// kernel is never checkpointed: it is a pure function of the
	// taxonomy, so a resumed finished run compiles it again, and the
	// setting does not change a checkpoint's bytes.
	CompileKernel bool
	// ResumeFrom, when non-empty, restores the shared state from a
	// checkpoint file before classification starts, skipping all settled
	// work; a finished run's file yields its taxonomy directly, with no
	// plug-in call and no phase 3. The snapshot must match the ontology
	// (fingerprint), mode, and concept count; a missing, truncated,
	// corrupted, or mismatched file is reported in Result.ResumeError and
	// the run falls back to a clean classification — resume can degrade
	// to a restart but never to a wrong taxonomy. ResumeFrom and
	// Checkpoint may name the same file.
	ResumeFrom string
}

// Validate reports the first configuration error, or nil. ClassifyContext
// calls it before touching any shared state, so an invalid Options never
// starts workers.
func (o *Options) Validate() error {
	if o.Reasoner == nil {
		return ErrNoReasoner
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: Options.Workers must be >= 0, got %d", o.Workers)
	}
	if o.RandomCycles < 0 {
		return fmt.Errorf("core: Options.RandomCycles must be >= 0, got %d", o.RandomCycles)
	}
	if o.Mode != Optimized && o.Mode != Basic {
		return fmt.Errorf("core: unknown Options.Mode %d", o.Mode)
	}
	if o.Scheduling != RoundRobin && o.Scheduling != Async {
		return fmt.Errorf("core: unknown Options.Scheduling %d", o.Scheduling)
	}
	if o.TestTimeout < 0 {
		return fmt.Errorf("core: Options.TestTimeout must be >= 0, got %v", o.TestTimeout)
	}
	if o.TestRetries < 0 {
		return fmt.Errorf("core: Options.TestRetries must be >= 0, got %d", o.TestRetries)
	}
	if o.TestRetries > 0 && o.TestTimeout == 0 {
		return fmt.Errorf("core: Options.TestRetries set (%d) without Options.TestTimeout", o.TestRetries)
	}
	return nil
}

// Stats summarizes reasoner usage of one run: its counters as plain
// values. The counters are declared once, as the fields of counters; a
// running classification keeps them in one counters[atomic.Int64]
// block, and loading that block gives a Stats.
type Stats = counters[int64]

// counters declares a run's counters over the cell type T: int64 for
// Stats, atomic.Int64 for the live block the workers add to.
type counters[T any] struct {
	SatTests  T // sat?() plug-in calls
	SubsTests T // subs?() plug-in calls
	Pruned    T // pairs resolved without a plug-in call (Sec. IV)
	// PreSeeded counts tests resolved from the EL prepass without a
	// plug-in dispatch (Options.ELPrepass): sat?() probes answered by a
	// fragment unsatisfiability, or by a complete fragment's saturation
	// for every other concept; directed subs? tests settled by a proven
	// fact (one each in basic mode, both directions of each pair stripped
	// outright in optimized mode) or answered later by the K-shortcircuit;
	// and, with a complete fragment, every remaining directed test, which
	// its exact saturation resolves as a non-subsumption.
	PreSeeded T
	// FilterHits counts subs? dispatches skipped because the plug-in's
	// row filter disproved the subsumption (Options.ModelFilter).
	FilterHits T
	TimedOut   T // tests abandoned after exhausting their budget
	Recovered  T // plug-in panics recovered into per-test errors
	// NodeBudget and BranchBudget count tests the plug-in itself
	// abandoned on resource exhaustion (reasoner.ErrNodeBudget /
	// ErrBranchBudget), kept separate from TimedOut so operators can tell
	// which degradation fired.
	NodeBudget   T
	BranchBudget T
	// Steals counts tasks that executed on a different worker than they
	// were queued to (Async only; zero otherwise).
	Steals T
}

// cells lists the counters in their fixed order, the one list every
// traversal follows: loading and restoring the live block, per-cycle
// deltas, and the checkpoint's counter section (persisted). Inserting a
// counter before Steals changes that section's layout, so it needs a new
// checkpoint version.
func (c *counters[T]) cells() []*T {
	return []*T{
		&c.SatTests, &c.SubsTests, &c.Pruned, &c.PreSeeded, &c.FilterHits,
		&c.TimedOut, &c.Recovered, &c.NodeBudget, &c.BranchBudget, &c.Steals,
	}
}

// persisted is the checkpointed prefix of cells: every counter but the
// last, Steals, which describes one run's scheduling, not the
// classification state.
func (c *counters[T]) persisted() []*T {
	cs := c.cells()
	return cs[:len(cs)-1]
}

// minus returns the counters of a less those of b.
func minus(a, b Stats) Stats {
	bc := b.cells()
	for i, c := range a.cells() {
		*c -= *bc[i]
	}
	return a
}

// Result is a completed classification.
type Result struct {
	Taxonomy *taxonomy.Taxonomy
	Stats    Stats
	// Undecided lists the tests abandoned under the per-test budget or
	// recovered from plug-in panics, in deterministic order. Empty means
	// the taxonomy is complete; non-empty means it is sound but may miss
	// the listed subsumptions.
	Undecided []Undecided
	// Trace is non-nil when Options.CollectTrace was set.
	Trace *Trace
	// Resumed reports whether the run restored state from
	// Options.ResumeFrom. False with a non-nil ResumeError means the
	// snapshot was rejected and the run started clean.
	Resumed bool
	// ResumeError is the reason Options.ResumeFrom could not be used
	// (wrapping ErrBadSnapshot); the run then classified from scratch.
	ResumeError error
	// CheckpointError is the first snapshot-write failure, if any; the
	// classification itself still completed.
	CheckpointError error
}

// ErrNoReasoner is returned when Options.Reasoner is nil.
var ErrNoReasoner = errors.New("core: Options.Reasoner is required")

// Classify runs parallel TBox classification (Algorithm 1,
// parallelTBoxClassification) and returns the taxonomy of all named
// concepts.
func Classify(t *dl.TBox, opts Options) (*Result, error) {
	return ClassifyContext(context.Background(), t, opts)
}

// ClassifyContext is Classify with cancellation: when ctx is cancelled
// the workers stop claiming work, in-flight reasoner calls finish, and
// the context error is returned.
func ClassifyContext(ctx context.Context, t *dl.TBox, opts Options) (*Result, error) {
	res, _, err := classifyContext(ctx, t, opts)
	return res, err
}

// classifyContext is ClassifyContext, also returning the run's state
// (nil when a finished snapshot was adopted) for tests to inspect.
func classifyContext(ctx context.Context, t *dl.TBox, opts Options) (*Result, *state, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cycles := opts.RandomCycles
	if cycles <= 0 {
		cycles = 2
	}
	t.Freeze()

	start := time.Now()
	var ck *checkpointer
	if opts.Checkpoint != "" {
		ck = &checkpointer{path: opts.Checkpoint, interval: opts.CheckpointInterval}
	}
	// A finished snapshot is the run: its taxonomy is rebuilt from the
	// stored hierarchy without a state, a pool or phase 3. Any other
	// snapshot is restored into the state below, and a rejected one leaves
	// a clean run.
	var (
		snap      *snapshot // the restored snapshot; nil on a clean run
		resumeErr error
	)
	if opts.ResumeFrom != "" {
		snap, resumeErr = readSnapshotFile(opts.ResumeFrom)
		if resumeErr == nil && snap.finished() {
			if err := ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("core: classification failed: %w", err)
			}
			res, err := snap.adopt(t, opts.Mode == Optimized, workers, opts.CompileKernel)
			if err == nil {
				ck.save(snap)
				res.CheckpointError = ck.firstErr()
				if opts.CollectTrace {
					res.Trace = &Trace{Workers: workers, Scheduling: opts.Scheduling, WallElapsed: time.Since(start)}
				}
				return res, nil, nil
			}
			snap, resumeErr = nil, err
		}
	}

	s := stateFor(t, opts.Reasoner, opts.Mode == Optimized)
	s.ctx = ctx
	s.testTimeout = opts.TestTimeout
	s.testRetries = opts.TestRetries
	var rows reasoner.RowFilter
	if opts.ModelFilter {
		rows = reasoner.AsRowFilter(opts.Reasoner)
	}
	if opts.Scheduling == Async {
		// Per-concept hardness EWMAs drive the LPT submission order; the
		// slice stays nil under RoundRobin so its dispatch is the paper's
		// i mod w.
		s.hard = make([]atomic.Int64, s.n)
	}

	// Restore a prior run's state before any worker exists: a rejected
	// snapshot leaves the state untouched and the run starts clean. The
	// EL prepass's fragment comes next, before any P or K: a clean run
	// whose fragment covers the whole TBox is decided by its saturation,
	// and phase 3 reads the saturation's rows, so it builds neither (see
	// seed). Any other run without a snapshot builds fresh P and K. A
	// snapshot whose prepass already ran restored its seeded facts;
	// seeding it again would be sound (claims no-op) but wasted.
	if snap != nil {
		if err := s.restoreSnapshot(snap); err != nil {
			snap, resumeErr = nil, err
		}
	}
	var frag *fragment
	if opts.ELPrepass && !s.prepassed {
		frag = newFragment(t, workers)
	}
	// direct: a clean run its complete fragment decides, without P or K.
	direct := snap == nil && frag != nil && frag.complete
	if snap == nil && !direct {
		s.initSets()
	}

	if ctx.Done() != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-ctx.Done():
				s.fail(ctx.Err())
			case <-stopWatch:
			}
		}()
	}
	var trace *Trace
	if opts.CollectTrace {
		initial := s.remainingPossible()
		if direct {
			initial = s.possibleAmong(s.n) // the P initSets would have built
		}
		trace = &Trace{Workers: workers, Scheduling: opts.Scheduling, InitialPossible: initial}
		s.recorded = s.stats() // a resumed run's restored counts are no cycle's
	}
	p := newPool(workers, opts.Scheduling, &s.count.Steals)
	p.onPanic = func(r any) {
		s.fail(fmt.Errorf("reasoner plug-in panicked: %v", r))
	}
	defer p.close()

	// epoch is the monotonic quiescence count snapshots are tagged with:
	// the epochs this run's pool has passed on top of whatever a resumed
	// snapshot had already accumulated.
	epoch := func() int64 { return s.epochBase + p.epoch.Load() }

	// The filter's rows are never checkpointed, so a resumed run with
	// pairs left builds them again. A direct run gets its saturation's
	// rows back for phase 3, and writes no unfinished snapshot, which
	// would be its P and K: its finished file is its only one.
	if rows != nil && s.remainingPossible() == 0 {
		rows = nil
	}
	var up []*bitset.Set
	if (frag != nil || rows != nil) && !s.failed() {
		up = s.runPrepass(p, workers, frag, rows, trace)
		if !direct {
			ck.write(s, PhaseRandom, epoch())
		}
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	// A snapshot taken during the group phase proves the random phase
	// finished; re-running it would only no-op on claimed pairs.
	skipRandom := snap != nil && snap.phase == PhaseGroup
	switch {
	case s.remainingPossible() == 0:
		// Every pair is decided — by a complete EL prepass, or in the
		// finished run a snapshot restored — so phases 1 and 2 would only
		// walk K and P failing claims. A direct run has no P at all.
	case opts.Scheduling == Async:
		s.runAsync(p, rng, workers, cycles, ck, trace, skipRandom)
	default:
		if !skipRandom {
			for cycle := 1; cycle <= cycles && !s.failed(); cycle++ {
				s.runRandomCycle(p, rng, workers, cycle, trace)
				ck.write(s, PhaseRandom, epoch())
			}
		}
		for iter := 1; !s.failed(); iter++ {
			if !s.runGroupCycle(p, iter, trace) {
				break
			}
			ck.write(s, PhaseGroup, epoch())
		}
	}
	s.disproved = nil // n² bits that phase 3 does not read
	if err := s.errOrNil(); err != nil {
		return nil, nil, fmt.Errorf("core: classification failed: %w", err)
	}
	if rem := s.remainingPossible(); rem != 0 {
		return nil, nil, fmt.Errorf("core: internal error: %d possible pairs left after group phase", rem)
	}
	final := epoch()
	tax, h, err := s.buildTaxonomy(p, up, trace)
	if err != nil {
		return nil, nil, err
	}
	// Final snapshot: the hierarchy, which a resume or Adopt rebuilds the
	// taxonomy from.
	ck.finish(s, h, final)
	if opts.CompileKernel {
		tax.CompileKernel(workers)
	}
	if trace != nil {
		trace.WallElapsed = time.Since(start)
	}
	return &Result{
		Taxonomy:        tax,
		Stats:           s.stats(),
		Undecided:       s.takeUndecided(),
		Trace:           trace,
		Resumed:         snap != nil,
		ResumeError:     resumeErr,
		CheckpointError: ck.firstErr(),
	}, s, nil
}

// record appends one trace cycle: c is the task record a barrier
// returned, and its counters are the delta since the previous record, so
// the cycles of a trace add up to the counts this run made.
func (s *state) record(trace *Trace, phase Phase, index int, c *Cycle) {
	if trace == nil {
		return
	}
	now := s.stats()
	c.Phase, c.Index = phase, index
	c.Stats = minus(now, s.recorded)
	c.RemainingPossible = s.remainingPossible()
	s.recorded = now
	trace.Cycles = append(trace.Cycles, c)
}

// runRandomCycle is one cycle of phase 1 (Algorithm 1's randomDivision +
// Algorithm 2): shuffle all concepts, split into w equal groups, and test
// all pairs within each group.
func (s *state) runRandomCycle(p *pool, rng *rand.Rand, workers, cycle int, trace *Trace) {
	s.submitRandomCycle(p, rng, workers)
	s.record(trace, PhaseRandom, cycle, p.barrier())
}

// submitRandomCycle dispatches one random-division cycle's groups without
// waiting for them: the shuffle and split depend only on the rng, never
// on test results, so the Async driver streams several cycles into the
// pool back to back.
func (s *state) submitRandomCycle(p *pool, rng *rand.Rand, workers int) {
	perm := rng.Perm(s.n)
	groups := splitGroups(perm, workers)
	if p.scheduling == Async {
		// LPT: hardest groups dispatch first so stealing mops up the
		// cheap tail. The estimate is the pair count (groups are nearly
		// equal-sized, so this only breaks ties in cycle 1) refined by
		// the members' hardness EWMAs once earlier cycles provided data.
		lptOrder(groups, func(g []int) int64 {
			c := int64(len(g)) * int64(len(g)-1) / 2
			for _, x := range g {
				c += s.hardLoad(x)
			}
			return c
		})
	}
	for _, g := range groups {
		g := g
		p.submit(func() time.Duration { return s.randomDivisionSubsTest(g) })
	}
}

// lptOrder sorts tasks by descending estimated cost (longest processing
// time first); the sort is stable so equal estimates keep their
// deterministic submission order.
func lptOrder[T any](tasks []T, cost func(T) int64) {
	type entry struct {
		t T
		c int64
	}
	es := make([]entry, len(tasks))
	for i, t := range tasks {
		es[i] = entry{t, cost(t)}
	}
	sort.SliceStable(es, func(i, j int) bool { return es[i].c > es[j].c })
	for i, e := range es {
		tasks[i] = e.t
	}
}

// splitGroups partitions seq into at most w contiguous groups of nearly
// equal size (the paper's n/w partitions).
func splitGroups(seq []int, w int) [][]int {
	if w < 1 {
		w = 1
	}
	n := len(seq)
	if w > n {
		w = n
	}
	out := make([][]int, 0, w)
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		if lo < hi {
			out = append(out, seq[lo:hi])
		}
	}
	return out
}

// randomDivisionSubsTest is Algorithm 2: test the pairs inside one random
// group. In basic mode the pairs are directed by sequence position
// (Example 3.1); in optimized mode each unordered pair is tested
// symmetrically with pruning (Example 4.1). The task tallies its
// counters locally and is charged once (see charge).
func (s *state) randomDivisionSubsTest(g []int) time.Duration {
	start := time.Now()
	var tally Stats
	defer s.add(&tally)
	var cost time.Duration
	for i := 0; i < len(g) && !s.failed(); i++ {
		for j := i + 1; j < len(g) && !s.failed(); j++ {
			cost += s.resolve(g[i], g[j], &tally)
		}
	}
	return s.charge(start, cost)
}

// groupTask is one phase-2 dispatch unit: test every y ∈ g against x.
type groupTask struct {
	x int
	g []int
}

// cutGroupTasks builds phase 2's task list from the current P sets: every
// concept X with P_X ≠ ∅ contributes a group G_X = P_X. Under RoundRobin
// P is quiescent here; under Async it may shrink concurrently, which only
// makes some tasks find their pairs already claimed.
func (s *state) cutGroupTasks() []groupTask {
	var tasks []groupTask
	for x := 0; x < s.n; x++ {
		if g := s.P[x].Members(); len(g) > 0 {
			tasks = append(tasks, groupTask{x, g})
		}
	}
	return tasks
}

// lptGroupTasks orders phase-2 tasks hardest-first: group size is the
// zero-knowledge cost estimate (the paper's Sec. V-C observation that
// G_X sizes drive phase-2 imbalance), refined by the hardness EWMAs
// phase 1 collected.
func (s *state) lptGroupTasks(tasks []groupTask) {
	lptOrder(tasks, func(t groupTask) int64 {
		hx := s.hardLoad(t.x)
		c := int64(len(t.g))
		for _, y := range t.g {
			c += hx + s.hardLoad(y)
		}
		return c
	})
}

// submitGroupTask dispatches one phase-2 group.
func (s *state) submitGroupTask(p *pool, t groupTask) {
	x, chunk := t.x, t.g
	p.submit(func() time.Duration { return s.groupDivisionSubsTest(x, chunk) })
}

// runGroupCycle is one pass of phase 2 (Algorithm 3): every concept X
// with P_X ≠ ∅ contributes a group G_X = P_X, dispatched round-robin.
// It reports whether any group was dispatched.
func (s *state) runGroupCycle(p *pool, iter int, trace *Trace) bool {
	tasks := s.cutGroupTasks()
	if len(tasks) == 0 {
		return false
	}
	for _, t := range tasks {
		s.submitGroupTask(p, t)
	}
	s.record(trace, PhaseGroup, iter, p.barrier())
	return true
}

// groupDivisionSubsTest is Algorithm 3 for one group G_X, tallied and
// charged like randomDivisionSubsTest.
func (s *state) groupDivisionSubsTest(x int, g []int) time.Duration {
	start := time.Now()
	var tally Stats
	defer s.add(&tally)
	var cost time.Duration
	for _, y := range g {
		if s.failed() {
			break
		}
		cost += s.resolve(x, y, &tally)
	}
	return s.charge(start, cost)
}
