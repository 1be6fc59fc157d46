package core

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parowl/internal/dl"
)

// chainIdx maps a chain concept "A<i>" to i, or -1 for ⊤.
func chainIdx(c *dl.Concept) int {
	if c.Op == dl.OpTop {
		return -1
	}
	i, err := strconv.Atoi(strings.TrimPrefix(c.String(), "A"))
	if err != nil {
		return -1
	}
	return i
}

// chainSubs is the ground truth of chainTBox: A_j ⊑ A_i iff j ≥ i, and
// everything is below ⊤.
func chainSubs(sup, sub *dl.Concept) bool {
	if sup.Op == dl.OpTop {
		return true
	}
	if sub.Op == dl.OpTop {
		return false
	}
	return chainIdx(sub) >= chainIdx(sup)
}

// hangingReasoner answers chain subsumptions instantly except for the one
// configured directed test, which never terminates: it blocks until its
// context is cancelled — the injected pathological test of the
// deadline-fallback scenario.
type hangingReasoner struct {
	hangSup, hangSub string
	hangs            atomic.Int64
}

func (h *hangingReasoner) Sat(context.Context, *dl.Concept) (bool, error) { return true, nil }

func (h *hangingReasoner) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	if sup.String() == h.hangSup && sub.String() == h.hangSub {
		h.hangs.Add(1)
		<-ctx.Done()
		return false, ctx.Err()
	}
	return chainSubs(sup, sub), nil
}

// TestTimeoutDegradesToUndecided is the acceptance scenario: a
// never-terminating subsumption test under a per-test budget must not
// hang the run. The classification completes promptly, records the pair
// as undecided, counts it in Stats.TimedOut, and yields a sound taxonomy
// that simply lacks the unproven subsumption.
func TestTimeoutDegradesToUndecided(t *testing.T) {
	tb := chainTBox(6)
	h := &hangingReasoner{hangSup: "A2", hangSub: "A3"} // a direct edge of the chain
	start := time.Now()
	res, err := Classify(tb, Options{
		Reasoner:    h,
		Workers:     3,
		TestTimeout: 25 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("run took %v; the hanging test should cost one budget, not a hang", elapsed)
	}
	if res.Stats.TimedOut != 1 {
		t.Errorf("Stats.TimedOut = %d, want 1", res.Stats.TimedOut)
	}
	if len(res.Undecided) != 1 {
		t.Fatalf("Undecided = %v, want exactly the hanging pair", res.Undecided)
	}
	u := res.Undecided[0]
	if u.Sup.String() != "A2" || u.Sub.String() != "A3" || u.Reason != "timeout" {
		t.Errorf("Undecided[0] = %v, want subs?(A2, A3) [timeout]", u)
	}
	// Soundness: nothing unproven is asserted — A3 is no longer placed
	// below A2 (the only evidence was the abandoned test)...
	f := tb.Factory
	if res.Taxonomy.IsAncestor(f.Name("A2"), f.Name("A3")) {
		t.Error("unproven subsumption A3 ⊑ A2 asserted in the taxonomy")
	}
	// ...while every subsumption that did not depend on the hanging test
	// survives: A3 stays below A1 and A4 below A2.
	if !res.Taxonomy.IsAncestor(f.Name("A1"), f.Name("A3")) {
		t.Error("proven subsumption A3 ⊑ A1 missing")
	}
	if !res.Taxonomy.IsAncestor(f.Name("A2"), f.Name("A4")) {
		t.Error("proven subsumption A4 ⊑ A2 missing")
	}
}

// slowPairReasoner takes `delay` on the configured directed test (honoring
// the context) and answers everything else instantly.
type slowPairReasoner struct {
	slowSup, slowSub string
	delay            time.Duration
	attempts         atomic.Int64
}

func (s *slowPairReasoner) Sat(context.Context, *dl.Concept) (bool, error) { return true, nil }

func (s *slowPairReasoner) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	if sup.String() == s.slowSup && sub.String() == s.slowSub {
		s.attempts.Add(1)
		timer := time.NewTimer(s.delay)
		defer timer.Stop()
		select {
		case <-timer.C:
			return chainSubs(sup, sub), nil
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
	return chainSubs(sup, sub), nil
}

// TestRetryEscalation: a test too slow for the base budget but within the
// escalated one is retried with doubled budgets until it succeeds — the
// result is decided, not degraded.
func TestRetryEscalation(t *testing.T) {
	tb := chainTBox(5)
	s := &slowPairReasoner{slowSup: "A1", slowSub: "A2", delay: 120 * time.Millisecond}
	res, err := Classify(tb, Options{
		Reasoner:    s,
		Workers:     2,
		TestTimeout: 40 * time.Millisecond, // attempts get 40ms, 80ms, 160ms
		TestRetries: 2,
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := s.attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (two timeouts, then success under the 160ms budget)", got)
	}
	if res.Stats.TimedOut != 0 || len(res.Undecided) != 0 {
		t.Errorf("escalated test recorded as degraded: TimedOut=%d Undecided=%v",
			res.Stats.TimedOut, res.Undecided)
	}
	// The decided answer is in the taxonomy: A2 ⊑ A1.
	if !res.Taxonomy.IsAncestor(tb.Factory.Name("A1"), tb.Factory.Name("A2")) {
		t.Error("subsumption decided on the escalated attempt missing from the taxonomy")
	}
}

// satHangingReasoner hangs sat?(A2) until cancelled; everything else is
// instant chain truth.
type satHangingReasoner struct{ hangs atomic.Int64 }

func (s *satHangingReasoner) Sat(ctx context.Context, c *dl.Concept) (bool, error) {
	if c.String() == "A2" {
		s.hangs.Add(1)
		<-ctx.Done()
		return false, ctx.Err()
	}
	return true, nil
}

func (s *satHangingReasoner) Subs(_ context.Context, sup, sub *dl.Concept) (bool, error) {
	return chainSubs(sup, sub), nil
}

// TestSatTimeoutConservative: a timed-out satisfiability test treats the
// concept as satisfiable (never asserting an unproven A ≡ ⊥) and lists it
// as undecided with a nil Sup.
func TestSatTimeoutConservative(t *testing.T) {
	tb := chainTBox(5)
	s := &satHangingReasoner{}
	res, err := Classify(tb, Options{
		Reasoner:    s,
		Workers:     2,
		TestTimeout: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Stats.TimedOut < 1 {
		t.Fatalf("Stats.TimedOut = %d, want >= 1", res.Stats.TimedOut)
	}
	found := false
	for _, u := range res.Undecided {
		if u.Sup == nil && u.Sub.String() == "A2" && u.Reason == "timeout" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sat?(A2) timeout missing from Undecided: %v", res.Undecided)
	}
	// Conservatively satisfiable: A2 keeps its chain position.
	if !res.Taxonomy.IsAncestor(tb.Factory.Name("A1"), tb.Factory.Name("A2")) {
		t.Error("A2 lost its taxonomy position after the sat timeout")
	}
}

// TestOptionsValidate covers the rejection matrix.
func TestOptionsValidate(t *testing.T) {
	ok := Options{Reasoner: &hangingReasoner{}}
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"nil reasoner", func(o *Options) { o.Reasoner = nil }},
		{"negative workers", func(o *Options) { o.Workers = -1 }},
		{"negative cycles", func(o *Options) { o.RandomCycles = -2 }},
		{"unknown mode", func(o *Options) { o.Mode = Mode(99) }},
		{"unknown scheduling", func(o *Options) { o.Scheduling = Scheduling(7) }},
		{"negative timeout", func(o *Options) { o.TestTimeout = -time.Second }},
		{"negative retries", func(o *Options) { o.TestRetries = -1 }},
		{"retries without timeout", func(o *Options) { o.TestRetries = 2 }},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	for _, tc := range cases {
		o := ok
		tc.mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, o)
		}
	}
	// Validate rejection propagates out of Classify before any work runs.
	if _, err := Classify(chainTBox(3), Options{Reasoner: &hangingReasoner{}, Workers: -1}); err == nil {
		t.Error("Classify accepted negative Workers")
	}
}

// TestBudgetEscalationSchedule pins the doubling schedule.
func TestBudgetEscalationSchedule(t *testing.T) {
	base := 10 * time.Millisecond
	want := []time.Duration{10, 20, 40, 80}
	for i, w := range want {
		if got := testBudgetFor(base, i); got != w*time.Millisecond {
			t.Errorf("attempt %d: budget = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}
