package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"parowl/internal/dl"
	"parowl/internal/reasoner"
)

// errTestTimedOut marks a reasoner test whose every budgeted attempt hit
// its deadline. It is a per-test degradation, not a run failure: the
// classifier records the pair as undecided and continues.
var errTestTimedOut = errors.New("core: reasoner test exceeded its budget")

// errReasonerPanic marks a plug-in call that panicked. Like a timeout it
// degrades only the one test; the panic value is preserved in the error
// message.
var errReasonerPanic = errors.New("core: reasoner plug-in panicked")

// Undecided records one reasoner test abandoned under the per-test budget
// (Options.TestTimeout), recovered from a plug-in panic, or cut off by
// the plug-in's own resource budget. The taxonomy stays sound — an
// abandoned subsumption test is never asserted, and an abandoned
// satisfiability test conservatively treats the concept as satisfiable —
// but it may be incomplete: a subsumption that holds could be missing.
// Callers that need certainty re-run the listed tests with a larger
// budget.
type Undecided struct {
	// Sup and Sub identify the directed test subs?(Sup, Sub) — "is
	// Sub ⊑ Sup" — that was abandoned. For an abandoned satisfiability
	// test Sup is nil and Sub is the concept whose sat?() call was cut
	// off.
	Sup, Sub *dl.Concept
	// Reason is "timeout" for a budget expiry, "panic" for a recovered
	// plug-in panic, or "node-budget" / "branch-budget" when the plug-in
	// reported exhausting its own resource limits (reasoner.ErrNodeBudget
	// / ErrBranchBudget).
	Reason string
}

func (u Undecided) String() string {
	if u.Sup == nil {
		return fmt.Sprintf("sat?(%v) [%s]", u.Sub, u.Reason)
	}
	return fmt.Sprintf("subs?(%v, %v) [%s]", u.Sup, u.Sub, u.Reason)
}

// safeSat runs one Sat plug-in call, converting a panic into
// errReasonerPanic instead of unwinding the worker.
func (s *state) safeSat(ctx context.Context, c *dl.Concept) (ok bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			ok, err = false, fmt.Errorf("%w: sat?(%v): %v", errReasonerPanic, c, r)
		}
	}()
	return s.r.Sat(ctx, c)
}

// safeSubs is safeSat for Subs.
func (s *state) safeSubs(ctx context.Context, sup, sub *dl.Concept) (ok bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			ok, err = false, fmt.Errorf("%w: subs?(%v, %v): %v", errReasonerPanic, sup, sub, r)
		}
	}()
	return s.r.Subs(ctx, sup, sub)
}

// budgeted runs one reasoner call under the per-test budget with
// escalation: attempt i receives TestTimeout·2ⁱ, and a call that still
// times out after TestRetries retries yields errTestTimedOut. Plug-in
// panics surface as errReasonerPanic without retry (a panicking plug-in
// is deterministic far more often than it is flaky). With no budget
// configured the call runs directly under the run context.
func (s *state) budgeted(call func(context.Context) (bool, error)) (bool, error) {
	if s.testTimeout <= 0 {
		return call(s.ctx)
	}
	for attempt := 0; ; attempt++ {
		budget := testBudgetFor(s.testTimeout, attempt)
		ctx, cancel := context.WithTimeout(s.ctx, budget)
		ok, err := call(ctx)
		cancel()
		if err == nil {
			return ok, nil
		}
		if errors.Is(err, errReasonerPanic) {
			return false, err
		}
		if cause := s.ctx.Err(); cause != nil {
			// The whole run was cancelled, not just this test's budget.
			return false, cause
		}
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			return false, err // a genuine plug-in error, never retried
		}
		if attempt >= s.testRetries {
			return false, fmt.Errorf("%w (%d attempt(s), final budget %v)", errTestTimedOut, attempt+1, budget)
		}
	}
}

// budgetedSat is sat?(c) under the per-test budget.
func (s *state) budgetedSat(c *dl.Concept) (bool, error) {
	return s.budgeted(func(ctx context.Context) (bool, error) { return s.safeSat(ctx, c) })
}

// budgetedSubs is subs?(sup, sub) under the per-test budget.
func (s *state) budgetedSubs(sup, sub *dl.Concept) (bool, error) {
	return s.budgeted(func(ctx context.Context) (bool, error) { return s.safeSubs(ctx, sup, sub) })
}

// isDegraded reports whether err is a per-test degradation (per-test
// budget expiry, recovered panic, or a plug-in resource-budget
// exhaustion) rather than an error that should fail the run.
func isDegraded(err error) bool {
	return errors.Is(err, errTestTimedOut) || errors.Is(err, errReasonerPanic) ||
		errors.Is(err, reasoner.ErrNodeBudget) || errors.Is(err, reasoner.ErrBranchBudget)
}

// recordUndecided notes one degraded test and bumps the matching counter.
func (s *state) recordUndecided(sup, sub *dl.Concept, err error) {
	var reason string
	switch {
	case errors.Is(err, errReasonerPanic):
		reason = "panic"
		s.count.Recovered.Add(1)
	case errors.Is(err, reasoner.ErrNodeBudget):
		reason = "node-budget"
		s.count.NodeBudget.Add(1)
	case errors.Is(err, reasoner.ErrBranchBudget):
		reason = "branch-budget"
		s.count.BranchBudget.Add(1)
	default:
		reason = "timeout"
		s.count.TimedOut.Add(1)
	}
	s.undecidedMu.Lock()
	s.undecided = append(s.undecided, Undecided{Sup: sup, Sub: sub, Reason: reason})
	s.undecidedMu.Unlock()
}

// takeUndecided returns the degraded tests in deterministic order
// (workers append in race order).
func (s *state) takeUndecided() []Undecided {
	s.undecidedMu.Lock()
	out := s.undecided
	s.undecided = nil
	s.undecidedMu.Unlock()
	sortUndecided(out)
	return out
}

// sortUndecided puts an Undecided list in Result.Undecided's
// deterministic order: by Sup, then by Sub.
func sortUndecided(out []Undecided) {
	sort.Slice(out, func(i, j int) bool {
		if a, b := conceptKey(out[i].Sup), conceptKey(out[j].Sup); a != b {
			return a < b
		}
		return conceptKey(out[i].Sub) < conceptKey(out[j].Sub)
	})
}

func conceptKey(c *dl.Concept) string {
	if c == nil {
		return ""
	}
	return c.String()
}

// testBudgetFor doubles the base per attempt; exposed for tests of the
// escalation schedule.
func testBudgetFor(base time.Duration, attempt int) time.Duration {
	return base << attempt
}
