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

// ModelFilter is an optional capability a plug-in may offer alongside
// Interface: a cheap, sound non-subsumption test. DisprovesSubs reports
// that sub ⊑ sup definitely does NOT hold — typically by merging cached
// pseudo-models of sub and ¬sup, in the spirit of tableau model-merging
// heuristics — without running a full test. False means "don't know",
// never "subsumed": callers may skip the expensive Subs dispatch on
// true, and must fall through to Subs on false.
//
// Implementations must be safe for concurrent use and cheap relative to
// Subs; they should not be budgeted or retried. The classifier detects
// the capability by type assertion, so plug-ins opt in just by
// implementing the method.
type ModelFilter interface {
	DisprovesSubs(ctx context.Context, sup, sub *dl.Concept) bool
}

// Wrapper is implemented by decorators (Counting, Cached, Chaos) that
// delegate to an inner plug-in. Capability probes walk the Unwrap chain
// so a capability is found regardless of decoration order.
type Wrapper interface {
	Unwrap() Interface
}

// AsModelFilter returns r's ModelFilter capability, or nil if neither r
// nor any plug-in it wraps implements it. Decorators that transform
// answers should implement ModelFilter themselves to intercept the probe;
// pass-through decorators get chain discovery for free.
func AsModelFilter(r Interface) ModelFilter {
	for r != nil {
		if mf, ok := r.(ModelFilter); ok {
			return mf
		}
		w, ok := r.(Wrapper)
		if !ok {
			return nil
		}
		r = w.Unwrap()
	}
	return nil
}

// AsCachePorter returns r's CachePorter capability (the ability to export
// and import settled answers), or nil if neither r nor any plug-in it
// wraps implements it.
func AsCachePorter(r Interface) CachePorter {
	for r != nil {
		if cp, ok := r.(CachePorter); ok {
			return cp
		}
		w, ok := r.(Wrapper)
		if !ok {
			return nil
		}
		r = w.Unwrap()
	}
	return nil
}

// Factory builds a plug-in reasoner for a TBox. Classifier options carry a
// Factory so the same classification code runs against any plug-in.
type Factory func(t *dl.TBox) (Interface, error)

// Stats counts plug-in calls with atomic counters.
type Stats struct {
	SatCalls  atomic.Int64
	SubsCalls atomic.Int64
	// FilterHits counts DisprovesSubs probes that answered true, each of
	// which typically stands in for an avoided Subs call.
	FilterHits atomic.Int64
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

// DisprovesSubs forwards the wrapped plug-in's ModelFilter capability,
// tallying hits. A Counting around a filterless plug-in still satisfies
// ModelFilter but never disproves anything.
func (c Counting) DisprovesSubs(ctx context.Context, sup, sub *dl.Concept) bool {
	mf := AsModelFilter(c.R)
	if mf == nil || !mf.DisprovesSubs(ctx, sup, sub) {
		return false
	}
	c.S.FilterHits.Add(1)
	return true
}

// Unwrap implements Wrapper so capability probes reach the wrapped
// plug-in through a Counting decorator.
func (c Counting) Unwrap() Interface { return c.R }
