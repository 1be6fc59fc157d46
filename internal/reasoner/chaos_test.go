package reasoner

import (
	"context"
	"errors"
	"testing"
	"time"

	"parowl/internal/dl"
)

// chaosOutcome classifies one Chaos call for determinism comparisons.
func chaosOutcome(c *Chaos, ctx context.Context, tb *oracleFixture) string {
	defer func() { recover() }()
	ok, err := c.Subs(ctx, tb.a, tb.b)
	switch {
	case err == nil && ok:
		return "true"
	case err == nil:
		return "false"
	case errors.Is(err, ErrInjected):
		return "err"
	case errors.Is(err, ErrNodeBudget):
		return "node"
	case errors.Is(err, ErrBranchBudget):
		return "branch"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "ctx"
	default:
		return "other"
	}
}

type oracleFixture struct {
	r    Interface
	a, b *dl.Concept
}

func newOracleFixture() *oracleFixture {
	tb := oracleTBox()
	f := tb.Factory
	return &oracleFixture{
		r: NewOracle(tb, OracleOptions{}),
		a: f.Name("A"),
		b: f.Name("B"),
	}
}

func TestChaosDeterministic(t *testing.T) {
	opts := ChaosOptions{Seed: 99, ErrRate: 0.2, PanicRate: 0.1, BudgetRate: 0.2}
	run := func() []string {
		fx := newOracleFixture()
		c := NewChaos(fx.r, opts)
		var out []string
		for i := 0; i < 200; i++ {
			out = append(out, chaosOutcome(c, context.Background(), fx))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: %q vs %q — chaos not deterministic for a fixed seed", i, a[i], b[i])
		}
	}
	// All configured fault kinds must actually fire over 200 draws.
	seen := map[string]bool{}
	for _, o := range a {
		seen[o] = true
	}
	for _, want := range []string{"true", "err", "node"} {
		if !seen[want] {
			t.Errorf("outcome %q never occurred in %v", want, seen)
		}
	}
}

// TestChaosSeedsIndependent checks that seeds give independent fault
// schedules: over 4,096 calls at a fixed error rate, the schedule of no
// seed from 1 to 15 is seed 0's with every call number XORed by the
// seed, which is what hashing seed ^ call number gave.
func TestChaosSeedsIndependent(t *testing.T) {
	const calls = 4096
	faults := func(seed int64) map[uint64]bool {
		fx := newOracleFixture()
		c := NewChaos(fx.r, ChaosOptions{Seed: seed, ErrRate: 0.02})
		out := map[uint64]bool{}
		for i := uint64(1); i <= calls; i++ {
			if _, err := c.Subs(context.Background(), fx.a, fx.b); errors.Is(err, ErrInjected) {
				out[i] = true
			}
		}
		return out
	}
	base := faults(0)
	if len(base) == 0 {
		t.Fatal("seed 0 injected no fault")
	}
	for seed := uint64(1); seed <= 15; seed++ {
		got := faults(int64(seed))
		permuted := true
		for i := uint64(1); i <= calls && permuted; i++ {
			if j := i ^ seed; j >= 1 && j <= calls {
				permuted = got[i] == base[j]
			}
		}
		if permuted {
			t.Errorf("seed %d's fault schedule is seed 0's with call numbers XORed by %d", seed, seed)
		}
	}
}

func TestChaosZeroRatesIsTransparent(t *testing.T) {
	fx := newOracleFixture()
	c := NewChaos(fx.r, ChaosOptions{Seed: 1})
	for i := 0; i < 50; i++ {
		ok, err := c.Subs(context.Background(), fx.a, fx.b)
		if err != nil || !ok {
			t.Fatalf("call %d: %v, %v — zero-rate chaos altered the answer", i, ok, err)
		}
	}
	if c.Calls() != 50 {
		t.Errorf("Calls() = %d, want 50", c.Calls())
	}
}

func TestChaosHangRespectsContext(t *testing.T) {
	fx := newOracleFixture()
	c := NewChaos(fx.r, ChaosOptions{Seed: 3, HangRate: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Subs(ctx, fx.a, fx.b)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung call error = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang ignored the context deadline")
	}
	// A context that can never be cancelled must not hang forever: the
	// fault falls through to the real call.
	if ok, err := c.Subs(context.Background(), fx.a, fx.b); err != nil || !ok {
		t.Fatalf("hang with uncancellable ctx = %v, %v; want fall-through true", ok, err)
	}
}

func TestChaosPanics(t *testing.T) {
	fx := newOracleFixture()
	c := NewChaos(fx.r, ChaosOptions{Seed: 4, PanicRate: 1})
	defer func() {
		if recover() == nil {
			t.Error("PanicRate=1 call did not panic")
		}
	}()
	_, _ = c.Subs(context.Background(), fx.a, fx.b)
}

func TestChaosUnwrap(t *testing.T) {
	fx := newOracleFixture()
	c := NewChaos(fx.r, ChaosOptions{Seed: 1})
	if c.Unwrap() != fx.r {
		t.Error("Unwrap did not return the wrapped plug-in")
	}
	// Capability probes see through the chaos decorator.
	cached := NewCached(&countedFake{})
	chaotic := NewChaos(cached, ChaosOptions{Seed: 1})
	if AsCachePorter(chaotic) == nil {
		t.Error("AsCachePorter failed to find Cached through Chaos")
	}
}

func TestParseChaos(t *testing.T) {
	o, err := ParseChaos("err=0.01,panic=0.005,hang=0.002,budget=0.01,slow=2ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := ChaosOptions{Seed: 7, ErrRate: 0.01, PanicRate: 0.005, HangRate: 0.002, BudgetRate: 0.01, Slow: 2 * time.Millisecond}
	if o != want {
		t.Fatalf("ParseChaos = %+v, want %+v", o, want)
	}
	for _, bad := range []string{
		"frobnicate=1",      // unknown key
		"err",               // missing value
		"err=xyz",           // unparsable value
		"err=1.5",           // rate out of range
		"err=-0.1",          // negative rate
		"err=0.6,panic=0.6", // rates sum past 1
		"slow=-1ms",         // negative latency
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
}

func TestChaosOptionsValidate(t *testing.T) {
	if err := (&ChaosOptions{ErrRate: 0.5, PanicRate: 0.5}).Validate(); err != nil {
		t.Errorf("rates summing to exactly 1 rejected: %v", err)
	}
	if err := (&ChaosOptions{ErrRate: 2}).Validate(); err == nil {
		t.Error("rate > 1 accepted")
	}
	if err := (&ChaosOptions{Slow: -time.Second}).Validate(); err == nil {
		t.Error("negative Slow accepted")
	}
}

func TestCachePortRoundTrip(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	src := NewCached(NewOracle(tb, OracleOptions{}))
	pairs := [][2]string{{"A", "B"}, {"A", "C"}, {"C", "B"}, {"B", "C"}}
	for _, p := range pairs {
		if _, err := src.Subs(context.Background(), f.Name(p[0]), f.Name(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Sat(context.Background(), f.Name("U")); err != nil {
		t.Fatal(err)
	}

	snap := src.ExportCache()
	if len(snap.Subs) != len(pairs) || len(snap.Sat) != 1 {
		t.Fatalf("export = %d subs, %d sat; want %d, 1", len(snap.Subs), len(snap.Sat), len(pairs))
	}
	for i := 1; i < len(snap.Subs); i++ {
		if snap.Subs[i-1].Key >= snap.Subs[i].Key {
			t.Fatal("export not sorted by key")
		}
	}

	// Import into a cache over a plug-in that always errors: answers must
	// come from the imported entries, proving no underlying calls happen.
	dst := NewCached(errReasoner{})
	dst.ImportCache(snap)
	for _, p := range pairs {
		ok, err := dst.Subs(context.Background(), f.Name(p[0]), f.Name(p[1]))
		if err != nil {
			t.Fatalf("imported entry missed for %v: %v", p, err)
		}
		want, _ := src.Subs(context.Background(), f.Name(p[0]), f.Name(p[1]))
		if ok != want {
			t.Fatalf("imported answer for %v = %v, want %v", p, ok, want)
		}
	}
	if sat, err := dst.Sat(context.Background(), f.Name("U")); err != nil || sat {
		t.Fatalf("imported sat entry = %v, %v; want false, nil", sat, err)
	}
}
