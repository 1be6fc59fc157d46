// Package reasoner defines the plug-in interface between the parallel
// classifier and the underlying OWL reasoner, mirroring the paper's
// architecture: "in order to keep our architecture universal we use OWL
// reasoners as plug-ins for deciding satisfiability and subsumption"
// (Sec. I). The paper plugs in HermiT 1.3.8; this repository provides
// three interchangeable plug-ins:
//
//   - the tableau reasoner (internal/tableau) — the full calculus,
//   - the EL saturation reasoner (internal/el) — fast and complete for
//     the EL/ELH+ corpora of Table IV,
//   - the Oracle — a precomputed subsumption closure with a synthetic
//     per-test cost model, standing in for HermiT in scalability
//     experiments where only scheduling behaviour matters.
//
// Every call carries a context.Context: single tableau tests on QCR-heavy
// ontologies can dominate wall time by orders of magnitude, so the
// classifier imposes per-test deadlines and plug-ins are expected to
// observe cancellation cooperatively (returning ctx.Err(), usually
// wrapped, as soon as practical after the context is done). A plug-in
// that ignores its context still computes correct answers but cannot be
// budgeted.
//
// The package also supplies a thread-safe memoizing decorator (Cached)
// and shared call statistics.
package reasoner

import (
	"context"
	"errors"
	"sync/atomic"

	"parowl/internal/bitset"
	"parowl/internal/dl"
)

// Budget-exhaustion sentinels. A plug-in whose internal resource budget
// (node pool, branching limit, …) runs out should return an error
// wrapping one of these so the classifier can degrade the single test to
// undecided — and report which budget blew — instead of failing the run.
// They are defined here, not in a concrete plug-in package, so the
// classifier stays plug-in-agnostic.
var (
	// ErrNodeBudget reports that a plug-in exhausted its per-test node
	// (memory) budget.
	ErrNodeBudget = errors.New("reasoner: node budget exhausted")
	// ErrBranchBudget reports that a plug-in exhausted its per-test
	// non-deterministic branching budget.
	ErrBranchBudget = errors.New("reasoner: branch budget exhausted")
)

// Interface is the classifier's view of a reasoner plug-in. All methods
// must be safe for concurrent use: the classifier calls them from every
// worker thread.
//
// Subs(ctx, sup, sub) answers sub ⊑ sup — the paper's subs?(sup, sub).
// Sat answers the paper's sat?(). Implementations should honour ctx
// cancellation and deadlines by returning an error satisfying
// errors.Is(err, ctx.Err()); the classifier relies on this to bound the
// cost of pathological tests.
type Interface interface {
	Sat(ctx context.Context, c *dl.Concept) (bool, error)
	Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error)
}

// RowFilter is an optional capability a plug-in may offer alongside
// Interface: a cheap, sound non-subsumption test answered a whole row at
// a time. FilterRows indexes the concepts cs — typically from pseudo
// models it cached while answering Sat — and returns row, which sets out
// (len(cs) bits) to exactly the y for which cs[y] ⊑ cs[x] definitely does
// NOT hold. A clear bit means "don't know", never "subsumed": callers
// may skip the expensive Subs dispatch for a set bit and must fall
// through to Subs otherwise. A nil cs[i] is left out of the index: it is
// never disproved and its own row is empty.
//
// row must be safe for concurrent use with distinct out sets. Neither
// call is budgeted or retried; a cancelled ctx may leave rows emptier
// than they would have been, which is still sound. The classifier
// detects the capability through AsRowFilter, so plug-ins opt in just by
// implementing the method.
type RowFilter interface {
	FilterRows(ctx context.Context, cs []*dl.Concept) (row func(x int, out *bitset.Set))
}

// ModelFilter is the pairwise form of RowFilter: DisprovesSubs reports
// that sub ⊑ sup definitely does NOT hold, false meaning "don't know".
// The classifier consults RowFilter only; ModelFilter remains for
// callers that probe single pairs.
type ModelFilter interface {
	DisprovesSubs(ctx context.Context, sup, sub *dl.Concept) bool
}

// Wrapper is implemented by decorators (Counting, Cached, Chaos) that
// delegate to an inner plug-in. Capability probes walk the Unwrap chain
// so a capability is found regardless of decoration order.
type Wrapper interface {
	Unwrap() Interface
}

// AsRowFilter returns r's RowFilter capability, or nil if neither r nor
// any plug-in it wraps implements it. Decorators that transform answers
// should implement RowFilter themselves to intercept it; pass-through
// decorators get chain discovery for free.
func AsRowFilter(r Interface) RowFilter { return capability[RowFilter](r) }

// AsModelFilter returns r's ModelFilter capability, or nil if neither r
// nor any plug-in it wraps implements it.
func AsModelFilter(r Interface) ModelFilter { return capability[ModelFilter](r) }

// AsCachePorter returns r's CachePorter capability (the ability to export
// and import settled answers), or nil if neither r nor any plug-in it
// wraps implements it.
func AsCachePorter(r Interface) CachePorter { return capability[CachePorter](r) }

// capability returns the first plug-in along r's Unwrap chain that
// implements T, or T's zero value.
func capability[T any](r Interface) T {
	for r != nil {
		if c, ok := r.(T); ok {
			return c
		}
		w, ok := r.(Wrapper)
		if !ok {
			break
		}
		r = w.Unwrap()
	}
	var zero T
	return zero
}

// Stats counts plug-in calls with atomic counters.
type Stats struct {
	SatCalls  atomic.Int64
	SubsCalls atomic.Int64
}

// Counting wraps a reasoner so every call is tallied in Stats.
type Counting struct {
	R Interface
	S *Stats
}

// Sat implements Interface.
func (c Counting) Sat(ctx context.Context, x *dl.Concept) (bool, error) {
	c.S.SatCalls.Add(1)
	return c.R.Sat(ctx, x)
}

// Subs implements Interface.
func (c Counting) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	c.S.SubsCalls.Add(1)
	return c.R.Subs(ctx, sup, sub)
}

// Unwrap implements Wrapper so capability probes reach the wrapped
// plug-in through a Counting decorator.
func (c Counting) Unwrap() Interface { return c.R }
