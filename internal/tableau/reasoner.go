package tableau

import (
	"context"
	"sync"
	"sync/atomic"

	"parowl/internal/dl"
)

// DefaultMaxNodes is the default node budget per satisfiability test.
const DefaultMaxNodes = 200_000

// DefaultMaxBranches is the default branching budget per test.
const DefaultMaxBranches = 2_000_000

// Options configures a Reasoner.
type Options struct {
	// MaxNodes bounds the number of completion-graph nodes any single
	// satisfiability test may create; 0 means DefaultMaxNodes. Exceeding
	// the budget returns ErrBudget instead of hanging.
	MaxNodes int
	// MaxBranches bounds the number of nondeterministic choice points a
	// single test may explore; 0 means DefaultMaxBranches. Exceeding it
	// returns ErrBranchBudget.
	MaxBranches int
}

// Stats counts reasoner activity with atomic counters, safe to read while
// tests run on other goroutines.
type Stats struct {
	SatTests   atomic.Int64 // calls answered by a tableau run
	SubsTests  atomic.Int64 // Subs calls (each is one sat test)
	Nodes      atomic.Int64 // completion-graph nodes created, cumulative
	MergeSkips atomic.Int64 // DisprovesSubs hits: non-subsumptions shown by pairwise model merging
	Cancelled  atomic.Int64 // tests abandoned on context cancellation

	// Arena effectiveness counters (see arena.go). A warm classification
	// run should show Reused ≫ Allocated on both pairs.
	SolversReused    atomic.Int64 // sat tests served by a pooled solver
	SolversAllocated atomic.Int64 // solvers constructed from scratch
	NodesReused      atomic.Int64 // completion-graph nodes recycled from a slab
	NodesAllocated   atomic.Int64 // completion-graph nodes heap-allocated
}

// Reasoner decides satisfiability and subsumption with respect to one
// TBox. The preprocessed state is read-only, so a single Reasoner is safe
// for concurrent use by many workers — exactly how the classifier shares
// its plug-in reasoner across the thread pool.
//
// Every test observes its context cooperatively: the expansion loop
// checks for cancellation between rule passes, so a test under a
// deadline stops within one pass of the deadline firing and returns the
// context error instead of an answer.
type Reasoner struct {
	tbox    *dl.TBox
	prep    *prep
	opts    Options
	stats   Stats
	models  modelCache
	solvers sync.Pool // *solver; see acquireSolver/releaseSolver
}

// New preprocesses the TBox (absorption + internalization) and returns a
// ready Reasoner. The TBox is frozen as a side effect.
func New(t *dl.TBox, opts Options) *Reasoner {
	t.Freeze()
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = DefaultMaxNodes
	}
	if opts.MaxBranches <= 0 {
		opts.MaxBranches = DefaultMaxBranches
	}
	r := &Reasoner{tbox: t, prep: newPrep(t), opts: opts}
	r.solvers.New = func() any {
		r.stats.SolversAllocated.Add(1)
		return &solver{p: r.prep, maxNodes: r.opts.MaxNodes, maxBranches: int32(r.opts.MaxBranches)}
	}
	return r
}

// acquireSolver returns a solver ready to run one satisfiability test,
// reusing arenas from an earlier test when the pool has one.
func (r *Reasoner) acquireSolver() *solver {
	s := r.solvers.Get().(*solver)
	if s.warm {
		r.stats.SolversReused.Add(1)
	}
	return s
}

// releaseSolver harvests the solver's per-test counters into Stats, resets
// every arena object it handed out (the reset-before-reuse invariant), and
// returns it to the pool.
func (r *Reasoner) releaseSolver(s *solver) {
	r.stats.Nodes.Add(int64(s.created))
	r.stats.NodesReused.Add(int64(s.nodesReused))
	r.stats.NodesAllocated.Add(int64(s.nodesAllocated))
	s.resetForReuse()
	s.warm = true
	r.solvers.Put(s)
}

// TBox returns the TBox this reasoner answers for.
func (r *Reasoner) TBox() *dl.TBox { return r.tbox }

// Stats exposes the activity counters.
func (r *Reasoner) Stats() *Stats { return &r.stats }

// Sat reports whether concept c is satisfiable with respect to the TBox.
// When ctx is cancelled or its deadline passes, the test is abandoned and
// the context error is returned. A decided named concept keeps the pseudo
// model of the root label the test completed (or the unsatisfiable
// marker), so the model filter needs no second run of the same concept.
func (r *Reasoner) Sat(ctx context.Context, c *dl.Concept) (bool, error) {
	r.stats.SatTests.Add(1)
	keep := false
	if c.Op == dl.OpName {
		_, cached := r.models.get(c)
		keep = !cached
	}
	sat, pm, err := r.solve(ctx, c, keep)
	if err != nil && ctx.Err() != nil {
		r.stats.Cancelled.Add(1)
	}
	if pm != nil {
		r.models.put(c, pm)
	}
	return sat, err
}

// solve runs one satisfiability test of c on a pooled solver. With keep
// set and the test decided, it also returns c's pseudo model, extracted
// before the solver's arenas are recycled.
func (r *Reasoner) solve(ctx context.Context, c *dl.Concept, keep bool) (bool, *pmodel, error) {
	s := r.acquireSolver()
	s.bindContext(ctx)
	s.start(c)
	sat, _, err := s.solve()
	var pm *pmodel
	if keep && err == nil {
		pm = unsatModel
		if sat {
			pm = extractPModel(s.g)
		}
	}
	r.releaseSolver(s)
	return sat, pm, err
}

// Subs reports whether sup subsumes sub (sub ⊑ sup) with respect to the
// TBox, by testing the unsatisfiability of sub ⊓ ¬sup. Every call runs
// the tableau; the cheap pseudo-model merge that settles most negatives
// is FilterRows, whose rows the classifier consults first (the model
// filter).
func (r *Reasoner) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	r.stats.SubsTests.Add(1)
	f := r.tbox.Factory
	sat, err := r.Sat(ctx, f.And(sub, f.Not(sup)))
	if err != nil {
		return false, err
	}
	return !sat, nil
}
