// Package core implements the paper's contribution: a thread-level
// parallel shared-memory architecture for OWL TBox classification
// (Quan & Haarslev, ICPP 2017, Sections III-IV).
//
// Classification runs in three parallel phases over shared atomic data
// structures P (possible subsumees) and K (known subsumees):
//
//  1. Random division (Algorithm 2): the named concepts are shuffled and
//     partitioned into w equal groups; each worker tests all pairs inside
//     its group.
//  2. Group division (Algorithm 3): for every concept X with P_X ≠ ∅ a
//     group G_X = P_X is dispatched round-robin to the worker pool until
//     P drains.
//  3. Concept hierarchy (Algorithm 4): partial hierarchies H_X are built
//     in parallel by reducing each K_X to the direct subsumees, then the
//     conquer step merges them into the final taxonomy.
//
// The optimized mode (Section IV, Algorithm 5) tests each pair
// symmetrically and uses known subsumees to prune untested possibilities
// from P without calling the reasoner.
package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"parowl/internal/bitset"
	"parowl/internal/dl"
	"parowl/internal/reasoner"
)

// Satisfiability states, memoized per concept.
const (
	satUnknown int32 = iota
	satYes
	satNo
)

// state is the shared-memory core of a classification run: the paper's
// "global atomic data structures". All hot-path mutation is lock-free
// (bitset CAS); the trace collector uses a mutex off the hot path.
type state struct {
	tbox  *dl.TBox
	named []*dl.Concept // N_O with ⊤ appended as the last element
	index map[*dl.Concept]int
	n     int // len(named), including ⊤
	top   int // index of ⊤

	r reasoner.Interface
	// virtual is r's synthetic cost model, nil unless r implements
	// reasoner.Virtual: the pair loop then charges each test its virtual
	// cost instead of measured time (see charge).
	virtual reasoner.Virtual

	// ctx is the run context every reasoner call inherits from;
	// testTimeout/testRetries implement the per-test budget with
	// escalation (see budget.go). ctx is never nil (Background by
	// default).
	ctx         context.Context
	testTimeout time.Duration
	testRetries int

	// P[x] bit y: subsumption between x and y still unresolved. In basic
	// mode the bit means "y is a possible subsumee of x" and both (x,y)
	// and (y,x) bits exist; in optimized mode the pair is stored only at
	// the smaller index (paper Sec. IV, Definition 2). Clearing a bit
	// atomically claims its test, so the clear is the paper's tested()
	// predicate in both modes and no separate n×n matrix exists.
	P []*bitset.Atomic
	// K[x] bit y: y is a known subsumee of x (y ⊑ x, y ≠ x).
	K []*bitset.Atomic

	satState []atomic.Int32

	optimized bool

	// disproved[x] bit y: the plug-in's model filter showed y ⋢ x, so
	// subs?(x, y) needs no dispatch. Built by the prepass from the
	// reasoner.RowFilter capability (Options.ModelFilter) for the
	// satisfiable concepts still in an open pair, nil rows elsewhere;
	// dropped when phase 2 ends.
	disproved []*bitset.Set
	// prepassed is set once the EL prepass has seeded K, enabling the
	// K-shortcircuit in testDirected; when off the hot path pays nothing.
	prepassed bool

	// hard[x] is an EWMA (α = 1/4) of the per-test cost (virtual, or
	// measured) of plug-in tests involving concept x, stored as
	// fixed-point nanoseconds shifted left by hardShift; non-nil only
	// under Async, where it orders each wave's submission hardest-first
	// (LPT). The blend is a CAS loop (see observeHard), so concurrent
	// updates from async workers never lose an observation; read through
	// hardLoad.
	hard []atomic.Int64

	// epochBase is the epoch count restored from a resumed snapshot; the
	// pool's own epoch counter (reset to zero per run) is added to it when
	// tagging new snapshots, so epochs stay monotonic across resumes.
	epochBase int64

	// count is the run's counter block, read as a Stats by stats();
	// recorded is its value at the latest trace record, where the next
	// cycle's delta starts. Phase-1/2 tasks tally into a local Stats and
	// add it here once, when they end (see add).
	count    counters[atomic.Int64]
	recorded Stats

	// pruneMu serializes pruneAfter's K edge deletions per sup row,
	// striped by row index.
	pruneMu [64]sync.Mutex

	// undecided collects the degraded tests for Result.Undecided.
	undecidedMu sync.Mutex
	undecided   []Undecided

	failure atomic.Pointer[classError]
}

// stats loads the run's counter block.
func (s *state) stats() Stats {
	var st Stats
	dst := st.cells()
	for i, c := range s.count.cells() {
		*dst[i] = c.Load()
	}
	return st
}

// add adds a finished task's tally to the run's counter block, one
// atomic add per counter the task moved, so no test writes a shared
// counter. Tasks defer it, so a task that panics still counts.
func (s *state) add(tally *Stats) {
	live := s.count.cells()
	for i, c := range tally.cells() {
		if *c != 0 {
			live[i].Add(*c)
		}
	}
}

// charge is what a finished phase-1/2 task, or a prepass sat? sweep
// task, is charged: under a reasoner.Virtual plug-in the summed virtual
// cost of its tests, which the virtual-time scheduler replays; otherwise
// its wall time since start, the paper's runtime of a thread, claims,
// sat? probes and pruning included.
func (s *state) charge(start time.Time, virtual time.Duration) time.Duration {
	if s.virtual != nil {
		return virtual
	}
	return time.Since(start)
}

type classError struct{ err error }

// stateFor returns the state of a run over t without its P and K sets:
// a restored snapshot supplies them (restoreSnapshot), initSets builds a
// fresh run's, and a clean run with a complete EL fragment needs none
// (see seed). ⊤ is satisfiable from the start.
func stateFor(t *dl.TBox, r reasoner.Interface, optimized bool) *state {
	named := conceptsOf(t)
	n := len(named)
	s := &state{
		tbox:      t,
		named:     named,
		index:     make(map[*dl.Concept]int, n),
		n:         n,
		top:       n - 1,
		r:         r,
		ctx:       context.Background(),
		satState:  make([]atomic.Int32, n),
		optimized: optimized,
	}
	s.virtual, _ = r.(reasoner.Virtual)
	for i, c := range s.named {
		s.index[c] = i
	}
	s.satState[s.top].Store(satYes)
	return s
}

// conceptsOf returns a run's index space over t: N_O with ⊤ appended as
// the last element.
func conceptsOf(t *dl.TBox) []*dl.Concept {
	named := t.NamedConcepts()
	return append(append(make([]*dl.Concept, 0, len(named)+1), named...), t.Factory.Top())
}

// initSets initializes P and K per the paper: P_X starts as all other
// concepts, K_X empty. ⊤ participates as a regular node so that concepts
// equivalent to ⊤ are discovered (paper Example 3.2 reports A ≡ ⊤), but
// the trivially true tests X ⊑ ⊤ are pre-seeded into K_⊤.
func (s *state) initSets() {
	n := s.n
	s.P = make([]*bitset.Atomic, n)
	s.K = make([]*bitset.Atomic, n)
	for i := 0; i < n; i++ {
		s.P[i] = bitset.NewAtomic(n)
		s.K[i] = bitset.NewAtomic(n)
	}
	if s.optimized {
		// Pair (x,y) lives at the smaller index: P_x = {y | y > x}.
		for x := 0; x < n; x++ {
			s.P[x].FillRange(x+1, n)
		}
	} else {
		for x := 0; x < s.top; x++ { // P_⊤ stays empty (below)
			s.P[x].FillAll()
			s.P[x].Clear(x)
		}
	}
	// X ⊑ ⊤ is trivially true for every X: seed K_⊤, and in basic mode
	// leave the directed entries (⊤, X) out of P. The opposite direction
	// ⊤ ⊑ X (equivalence to ⊤, see paper Example 3.2's A ≡ ⊤) stays in P
	// and is decided by a test: in basic mode it is the pair entry
	// (X, ⊤), in optimized mode the single stored pair {X, ⊤} keeps both
	// directions alive.
	s.K[s.top].FillRange(0, n-1)
}

// possibleAmong is the number of possible pairs initSets leaves among m
// concepts, ⊤ included: each unordered pair once in optimized mode, and
// in basic mode every directed entry but those of P_⊤, which starts
// empty. For m = n it is a fresh run's |R_O|.
func (s *state) possibleAmong(m int) int64 {
	if s.optimized {
		return int64(m) * int64(m-1) / 2
	}
	return int64(m-1) * int64(m-1)
}

// fail records the first error and poisons the run.
func (s *state) fail(err error) {
	s.failure.CompareAndSwap(nil, &classError{err})
}

// failed reports whether the run is poisoned.
func (s *state) failed() bool { return s.failure.Load() != nil }

func (s *state) errOrNil() error {
	if f := s.failure.Load(); f != nil {
		return f.err
	}
	return nil
}

// sat memoizes sat?(x). On discovering an unsatisfiable concept it empties
// P_x and removes x from every other P (Algorithm 2's unsat handling, see
// markUnsat).
func (s *state) sat(x int) bool {
	switch s.satState[x].Load() {
	case satYes:
		return true
	case satNo:
		return false
	}
	ok, err := s.budgetedSat(s.named[x])
	s.count.SatTests.Add(1)
	if err != nil {
		if isDegraded(err) {
			// Conservative fallback: treat the concept as satisfiable, so
			// the run never asserts an unsatisfiability it did not prove.
			// Subsumptions involving x are still decided by their own
			// tests; only the x ≡ ⊥ shortcut is lost.
			s.recordUndecided(nil, s.named[x], err)
			s.satState[x].Store(satYes)
			return true
		}
		s.fail(err)
		return false
	}
	if ok {
		s.satState[x].Store(satYes)
		return true
	}
	s.markUnsat(x)
	return false
}

// markUnsat records x as unsatisfiable unless its state is already
// decided, and reports whether it did. x ≡ ⊥, so P_x empties and x
// leaves every other P (a run without P has none to leave): no
// subsumption test involving x is ever needed.
func (s *state) markUnsat(x int) bool {
	if !s.satState[x].CompareAndSwap(satUnknown, satNo) {
		return false
	}
	for y, py := range s.P {
		if y == x {
			py.ClearAll()
		} else {
			py.Clear(x)
		}
	}
	return true
}

// remainingPossible is |R_O| = Σ|P_X| (paper Definition 1/3), counting
// unresolved pairs (each pair counts once in optimized mode, twice in
// basic mode, matching the paper's InitialPossible bookkeeping).
func (s *state) remainingPossible() int64 {
	var total int64
	for _, p := range s.P {
		total += int64(p.Count())
	}
	return total
}

// testDirected runs subs?(x, y) — is y ⊑ x — through the plug-in,
// recording the result in K/P, counting the test in tally and returning
// the verdict. The caller must have claimed the test. Its cost is
// the test's virtual cost under a reasoner.Virtual plug-in and its
// measured time when Async's hardness EWMAs need one; otherwise no clock
// is read and the cost is 0, since the task is charged its wall time.
func (s *state) testDirected(x, y int, tally *Stats) (bool, time.Duration) {
	if s.prepassed && s.K[x].Test(y) {
		// Only the prepass can have set this bit before the directed test
		// runs: every directed test is claimed exactly once, and the only
		// other K writers are this function (after the claim) and
		// pruneAfter, which clears bits. The seeded fact is entailed by
		// the TBox, so the positive answer needs no plug-in call.
		tally.PreSeeded++
		return true, 0
	}
	if s.disproved != nil && s.disproved[x] != nil && s.disproved[x].Test(y) {
		// The filter's "definitely not subsumed" verdict is sound, so the
		// negative is final: no K update, no plug-in dispatch.
		tally.FilterHits++
		return false, 0
	}
	timed := s.hard != nil && s.virtual == nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	res, err := s.budgetedSubs(s.named[x], s.named[y])
	tally.SubsTests++
	if err != nil && !isDegraded(err) {
		s.fail(err)
		return false, 0
	}
	var cost time.Duration
	switch {
	case s.virtual != nil:
		cost = s.virtual.VirtualSubsCost(s.named[x], s.named[y], res)
	case timed:
		cost = time.Since(start)
	}
	if err != nil {
		// Degraded: the pair was already claimed, so the loop progresses;
		// the subsumption is NOT recorded in K (the taxonomy asserts only
		// proven subsumptions) and the pair is surfaced in
		// Result.Undecided.
		s.recordUndecided(s.named[x], s.named[y], err)
		return false, cost
	}
	s.observeHard(x, y, cost)
	if res {
		s.K[x].Set(y)
	}
	return res, cost
}

// hardShift scales the hardness EWMAs to fixed point: the stored value is
// nanoseconds << hardShift, giving the α = 1/4 blend 8 fractional bits so
// repeated small observations are not rounded away. Headroom is ample: an
// hour-long test is ~2^60 after the shift.
const hardShift = 8

// observeHard folds one finished directed test's cost into both concepts'
// hardness EWMAs. First observation seeds the average; later ones blend
// with α = 1/4 through a CAS loop, so concurrent observers (async workers
// publish continuously) each land their update instead of overwriting one
// another. No-op unless the run scheduled with Async.
func (s *state) observeHard(x, y int, cost time.Duration) {
	if s.hard == nil || cost <= 0 {
		return
	}
	v := int64(cost) << hardShift
	for _, c := range [2]int{x, y} {
		for {
			old := s.hard[c].Load()
			nw := v
			if old != 0 {
				nw = old + (v-old)>>2
			}
			if s.hard[c].CompareAndSwap(old, nw) {
				break
			}
		}
	}
}

// hardLoad returns concept c's hardness EWMA in whole nanoseconds.
func (s *state) hardLoad(c int) int64 {
	return s.hard[c].Load() >> hardShift
}

// resolveBasic performs the basic-mode directed test of Algorithm 2 /
// Algorithm 3: claim the entry by clearing its P bit, check
// satisfiability, test. It counts in tally and returns the test's cost
// (see testDirected).
func (s *state) resolveBasic(x, y int, tally *Stats) time.Duration {
	if x == y || s.failed() {
		return 0
	}
	if !s.P[x].Clear(y) {
		return 0
	}
	if !s.sat(x) || !s.sat(y) {
		return 0
	}
	_, cost := s.testDirected(x, y, tally)
	return cost
}

// resolve decides the pair (x, y) in the run's mode: resolvePair's
// symmetric tests in optimized mode, resolveBasic's directed one in
// basic mode.
func (s *state) resolve(x, y int, tally *Stats) time.Duration {
	if s.optimized {
		return s.resolvePair(x, y, tally)
	}
	return s.resolveBasic(x, y, tally)
}
