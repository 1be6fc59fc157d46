package reasoner

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"parowl/internal/dl"
)

// ErrInjected marks a fault produced by the Chaos decorator rather than a
// real reasoning failure. The classifier treats it like any other plug-in
// error — the run aborts — which is exactly what crash-safety tests want
// to provoke.
var ErrInjected = errors.New("reasoner: injected chaos fault")

// ChaosOptions configures the fault mix of a Chaos decorator. Rates are
// per-call probabilities in [0, 1] and are drawn in the listed order from
// a single uniform sample, so ErrRate+PanicRate+HangRate+BudgetRate must
// not exceed 1.
type ChaosOptions struct {
	// Seed makes the fault schedule deterministic: the i-th call of a
	// Chaos instance draws from a hash of (Seed, i), so two runs with the
	// same seed and call order inject the same faults.
	Seed int64
	// ErrRate injects ErrInjected — a run-fatal plug-in error, the
	// resumable-crash case.
	ErrRate float64
	// PanicRate panics with an ErrInjected-derived message; the classifier
	// recovers it into an undecided test.
	PanicRate float64
	// HangRate blocks until the call's context is done, simulating a
	// non-terminating tableau test; it requires a cancellable context
	// (per-test budget or run deadline) and falls through to the real call
	// otherwise.
	HangRate float64
	// BudgetRate injects ErrNodeBudget / ErrBranchBudget (alternating),
	// simulating resource-exhaustion degradation.
	BudgetRate float64
	// Slow adds a fixed context-aware latency to every call, stretching
	// runs so external kills land mid-classification.
	Slow time.Duration
}

// Validate reports the first configuration error, or nil.
func (o *ChaosOptions) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"err", o.ErrRate}, {"panic", o.PanicRate}, {"hang", o.HangRate}, {"budget", o.BudgetRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("reasoner: chaos %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	if sum := o.ErrRate + o.PanicRate + o.HangRate + o.BudgetRate; sum > 1 {
		return fmt.Errorf("reasoner: chaos rates sum to %v > 1", sum)
	}
	if o.Slow < 0 {
		return fmt.Errorf("reasoner: negative chaos slow %v", o.Slow)
	}
	return nil
}

// Chaos is a fault-injecting decorator for crash-safety and degradation
// testing: each Sat/Subs call first draws from a deterministic schedule
// and possibly errors, panics, hangs, or reports budget exhaustion
// instead of (or before) delegating to the wrapped plug-in.
//
// Compose it OUTSIDE other decorators — Chaos(Cached(inner)), never
// Cached(Chaos(inner)) — so an injected panic cannot unwind the cache's
// single-flight bookkeeping mid-update.
type Chaos struct {
	r    Interface
	opts ChaosOptions
	seq  atomic.Uint64
}

// NewChaos wraps r with fault injection. Panics if opts fails Validate,
// as a misconfigured chaos harness silently tests nothing.
func NewChaos(r Interface, opts ChaosOptions) *Chaos {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	return &Chaos{r: r, opts: opts}
}

// Unwrap implements Wrapper so capability probes (RowFilter,
// CachePorter) reach the wrapped plug-in; chaos does not intercept those
// paths.
func (c *Chaos) Unwrap() Interface { return c.r }

// Calls returns how many Sat/Subs calls the decorator has seen.
func (c *Chaos) Calls() uint64 { return c.seq.Load() }

// inject runs the fault draw for one call, hashing (seed, seq) with the
// package's splitmix64 (oracle.go) so schedules are deterministic. The
// call number is hashed before the seed is mixed in, as pairHash does:
// hashing seed ^ seq would make seed s's schedule seed 0's with every
// call number XORed by s. It returns a non-nil error for an injected
// error, panics for an injected panic, blocks for an injected hang, and
// returns nil when the real call should proceed.
func (c *Chaos) inject(ctx context.Context, what string) error {
	seq := c.seq.Add(1)
	h := splitmix64(uint64(c.opts.Seed) ^ splitmix64(seq))
	if c.opts.Slow > 0 {
		t := time.NewTimer(c.opts.Slow)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	// One uniform draw cascades through the rates in a fixed order.
	u := float64(h>>11) / float64(1<<53)
	switch {
	case u < c.opts.ErrRate:
		return fmt.Errorf("%w: %s (call %d)", ErrInjected, what, seq)
	case u < c.opts.ErrRate+c.opts.PanicRate:
		panic(fmt.Sprintf("injected chaos panic: %s (call %d)", what, seq))
	case u < c.opts.ErrRate+c.opts.PanicRate+c.opts.HangRate:
		if ctx.Done() != nil {
			<-ctx.Done()
			return ctx.Err()
		}
		// Uncancellable context: a real hang would block forever, so fall
		// through to the genuine call.
		return nil
	case u < c.opts.ErrRate+c.opts.PanicRate+c.opts.HangRate+c.opts.BudgetRate:
		if h&(1<<10) != 0 {
			return fmt.Errorf("chaos: %s: %w", what, ErrBranchBudget)
		}
		return fmt.Errorf("chaos: %s: %w", what, ErrNodeBudget)
	}
	return nil
}

// Sat implements Interface.
func (c *Chaos) Sat(ctx context.Context, x *dl.Concept) (bool, error) {
	if err := c.inject(ctx, fmt.Sprintf("sat?(%v)", x)); err != nil {
		return false, err
	}
	return c.r.Sat(ctx, x)
}

// Subs implements Interface.
func (c *Chaos) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	if err := c.inject(ctx, fmt.Sprintf("subs?(%v, %v)", sup, sub)); err != nil {
		return false, err
	}
	return c.r.Subs(ctx, sup, sub)
}

// ParseChaos builds ChaosOptions from a compact comma-separated spec, the
// format of owlclass's -chaos flag:
//
//	err=0.01,panic=0.005,hang=0.002,budget=0.01,slow=2ms,seed=7
//
// Unknown keys, malformed values, and invalid rate combinations are
// errors. An empty spec yields the zero options (no faults).
func ParseChaos(spec string) (ChaosOptions, error) {
	var o ChaosOptions
	if spec == "" {
		return o, nil
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return o, fmt.Errorf("reasoner: chaos spec field %q is not key=value", field)
		}
		var err error
		switch k {
		case "err":
			o.ErrRate, err = strconv.ParseFloat(v, 64)
		case "panic":
			o.PanicRate, err = strconv.ParseFloat(v, 64)
		case "hang":
			o.HangRate, err = strconv.ParseFloat(v, 64)
		case "budget":
			o.BudgetRate, err = strconv.ParseFloat(v, 64)
		case "slow":
			o.Slow, err = time.ParseDuration(v)
		case "seed":
			o.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return o, fmt.Errorf("reasoner: unknown chaos key %q", k)
		}
		if err != nil {
			return o, fmt.Errorf("reasoner: chaos %s: %v", k, err)
		}
	}
	return o, o.Validate()
}
