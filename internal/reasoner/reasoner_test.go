package reasoner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parowl/internal/dl"
)

func oracleTBox() *dl.TBox {
	tb := dl.NewTBox("oracle")
	f := tb.Factory
	a, b, c, d := tb.Declare("A"), tb.Declare("B"), tb.Declare("C"), tb.Declare("D")
	u := tb.Declare("U")
	tb.SubClassOf(b, a)
	tb.SubClassOf(c, b)
	tb.EquivalentClasses(d, a) // D ≡ A via told axioms
	tb.SubClassOf(u, f.Bottom())
	tb.Freeze()
	return tb
}

func TestOracleClosure(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	o := NewOracle(tb, OracleOptions{})
	cases := []struct {
		sup, sub string
		want     bool
	}{
		{"A", "B", true},
		{"A", "C", true}, // transitive
		{"B", "C", true},
		{"C", "B", false},
		{"A", "D", true},
		{"D", "A", true}, // equivalence both ways
		{"D", "C", true}, // via A
	}
	for _, c := range cases {
		got, err := o.Subs(context.Background(), f.Name(c.sup), f.Name(c.sub))
		if err != nil {
			t.Fatalf("%s ⊒ %s: %v", c.sup, c.sub, err)
		}
		if got != c.want {
			t.Errorf("%s ⊒ %s = %v, want %v", c.sup, c.sub, got, c.want)
		}
	}
}

func TestOracleTopBottom(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	o := NewOracle(tb, OracleOptions{})
	if ok, _ := o.Subs(context.Background(), f.Top(), f.Name("C")); !ok {
		t.Error("C ⊑ ⊤ false")
	}
	if ok, _ := o.Subs(context.Background(), f.Name("C"), f.Top()); ok {
		t.Error("⊤ ⊑ C true")
	}
	if sat, _ := o.Sat(context.Background(), f.Name("U")); sat {
		t.Error("U satisfiable despite U ⊑ ⊥")
	}
	if ok, _ := o.Subs(context.Background(), f.Name("C"), f.Name("U")); !ok {
		t.Error("unsat U not subsumed by everything")
	}
	if _, err := o.Subs(context.Background(), f.Name("C"), f.Name("NotDeclared")); err == nil {
		t.Error("undeclared concept accepted")
	}
}

func TestOracleTopEquivalence(t *testing.T) {
	tb := dl.NewTBox("topeq")
	f := tb.Factory
	a, b := tb.Declare("A"), tb.Declare("B")
	tb.EquivalentClasses(a, f.Top())
	tb.SubClassOf(b, a)
	tb.Freeze()
	o := NewOracle(tb, OracleOptions{})
	if ok, err := o.Subs(context.Background(), a, f.Top()); err != nil || !ok {
		t.Errorf("⊤ ⊑ A = %v, %v; want true", ok, err)
	}
	// ⊤ ⊑ A and B ⊑ anything-below-top transitively: B ⊑ A directly too.
	if ok, _ := o.Subs(context.Background(), a, b); !ok {
		t.Error("B ⊑ A false")
	}
}

func TestUniformCostDeterministic(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	m := UniformCost(time.Millisecond, 0.3, 42)
	a, b := f.Name("A"), f.Name("B")
	c1, c2 := m(a, b, true), m(a, b, true)
	if c1 != c2 {
		t.Error("cost not deterministic")
	}
	if c1 < 700*time.Microsecond || c1 > 1300*time.Microsecond {
		t.Errorf("cost %v outside jitter band", c1)
	}
	if m(a, b, true) == m(b, a, true) && m(a, f.Name("C"), true) == m(a, b, true) {
		t.Error("suspiciously constant costs")
	}
}

func TestHeavyTailCost(t *testing.T) {
	tb := dl.NewTBox("ht")
	var cs []*dl.Concept
	for i := 0; i < 400; i++ {
		cs = append(cs, tb.Declare(string(rune('A'+i%26))+string(rune('0'+i/26))))
	}
	m := HeavyTailCost(time.Millisecond, 0.05, 100, 7)
	tail, body := 0, 0
	for i := 0; i < len(cs); i++ {
		for j := 0; j < 20; j++ {
			c := m(cs[i], cs[(i+j+1)%len(cs)], true)
			if c >= 50*time.Millisecond {
				tail++
			} else {
				body++
			}
		}
	}
	frac := float64(tail) / float64(tail+body)
	if frac < 0.02 || frac > 0.10 {
		t.Errorf("tail fraction = %.3f, want ≈0.05", frac)
	}
}

type countedFake struct {
	mu    sync.Mutex
	calls int
}

func (c *countedFake) Sat(_ context.Context, _ *dl.Concept) (bool, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return true, nil
}
func (c *countedFake) Subs(_ context.Context, _, _ *dl.Concept) (bool, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return true, nil
}

func TestCachedDedupes(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	fake := &countedFake{}
	c := NewCached(fake)
	a, b := f.Name("A"), f.Name("B")
	for i := 0; i < 10; i++ {
		if _, err := c.Subs(context.Background(), a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Sat(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}
	if fake.calls != 2 {
		t.Errorf("underlying calls = %d, want 2", fake.calls)
	}
	// Direction matters for subsumption.
	if _, err := c.Subs(context.Background(), b, a); err != nil {
		t.Fatal(err)
	}
	if fake.calls != 3 {
		t.Errorf("underlying calls = %d, want 3", fake.calls)
	}
}

type errReasoner struct{}

func (errReasoner) Sat(context.Context, *dl.Concept) (bool, error) {
	return false, errors.New("boom")
}
func (errReasoner) Subs(context.Context, *dl.Concept, *dl.Concept) (bool, error) {
	return false, errors.New("boom")
}

func TestCachedDoesNotCacheErrors(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	c := NewCached(errReasoner{})
	if _, err := c.Sat(context.Background(), f.Name("A")); err == nil {
		t.Fatal("error swallowed")
	}
	if _, err := c.Sat(context.Background(), f.Name("A")); err == nil {
		t.Fatal("error cached as success")
	}
}

func TestCountingWrapper(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	var stats Stats
	c := Counting{R: &countedFake{}, S: &stats}
	ctx := context.Background()
	_, _ = c.Subs(ctx, f.Name("A"), f.Name("B"))
	_, _ = c.Sat(ctx, f.Name("A"))
	_, _ = c.Sat(ctx, f.Name("B"))
	if stats.SubsCalls.Load() != 1 || stats.SatCalls.Load() != 2 {
		t.Errorf("stats = %d subs, %d sat", stats.SubsCalls.Load(), stats.SatCalls.Load())
	}
}

// gatedReasoner counts Subsumes calls and holds each call open until the
// test releases it, so concurrent cache misses can be arranged reliably.
type gatedReasoner struct {
	calls   atomic.Int64
	entered *atomic.Int64 // callers that have started a Subsumes request
	waitFor int64         // hold fn open until this many callers entered
	release chan struct{} // closed by fn once all callers are in
}

func (g *gatedReasoner) Sat(context.Context, *dl.Concept) (bool, error) { return true, nil }

func (g *gatedReasoner) Subs(_ context.Context, _, _ *dl.Concept) (bool, error) {
	g.calls.Add(1)
	// Wait until every test goroutine has issued its request, then give
	// the stragglers a moment to reach the in-flight wait before
	// answering: all of them must join this flight, not start their own.
	for g.entered.Load() < g.waitFor {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	close(g.release)
	return true, nil
}

// TestCachedSingleFlight proves the thundering-herd suppression: N
// workers missing on the same (sup, sub) key concurrently trigger exactly
// one underlying call, and all N receive its answer.
func TestCachedSingleFlight(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	const workers = 16
	var entered atomic.Int64
	g := &gatedReasoner{entered: &entered, waitFor: workers, release: make(chan struct{})}
	c := NewCached(g)
	a, b := f.Name("A"), f.Name("B")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			ok, err := c.Subs(context.Background(), a, b)
			if err != nil || !ok {
				t.Errorf("Subsumes = %v, %v", ok, err)
			}
		}()
	}
	wg.Wait()
	if n := g.calls.Load(); n != 1 {
		t.Errorf("underlying calls = %d, want 1 (single-flight)", n)
	}
	// The settled answer is served from the cache afterwards.
	if ok, err := c.Subs(context.Background(), a, b); err != nil || !ok {
		t.Errorf("cached Subsumes = %v, %v", ok, err)
	}
	if n := g.calls.Load(); n != 1 {
		t.Errorf("underlying calls after cache hit = %d, want 1", n)
	}
}

// TestCachedSingleFlightErrorPropagates: a failed flight hands its error
// to every waiter and is not cached, so the next caller retries.
func TestCachedSingleFlightErrorPropagates(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	c := NewCached(errReasoner{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = c.Subs(context.Background(), f.Name("A"), f.Name("B"))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			t.Errorf("worker %d: error lost", w)
		}
	}
	if _, err := c.Subs(context.Background(), f.Name("A"), f.Name("B")); err == nil {
		t.Error("error cached as success")
	}
}

func TestCachedConcurrent(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	c := NewCached(NewOracle(tb, OracleOptions{}))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ok, err := c.Subs(context.Background(), f.Name("A"), f.Name("C"))
				if err != nil || !ok {
					t.Errorf("C ⊑ A = %v, %v", ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
