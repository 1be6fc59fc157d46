package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parowl/internal/dl"
	"parowl/internal/reasoner"
)

// TestWorkerLoadsRecorded: the trace must carry per-worker loads whose sum
// matches the runtime of the tasks the pool ran, and a sane imbalance
// factor. Work charged outside the pool (worker -1) is in the runtime but
// in no worker's load: each phase 3 record carries one such task, the
// contraction in the first and the conquer step in the second.
func TestWorkerLoadsRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tb := randomTaxonomyTBox(rng, 25)
	oracle := reasoner.NewOracle(tb, reasoner.OracleOptions{
		SubsCost: reasoner.UniformCost(1000, 0.1, 1),
	})
	res, err := Classify(tb, Options{Reasoner: oracle, Workers: 4, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Trace.Cycles {
		if len(c.Tasks) == 0 {
			continue
		}
		if len(c.WorkerLoads) != 4 {
			t.Fatalf("cycle %d: %d worker loads, want 4", i, len(c.WorkerLoads))
		}
		var sum, pooled int64
		for _, l := range c.WorkerLoads {
			sum += int64(l)
		}
		outside := 0
		for k, d := range c.Tasks {
			if c.TaskWorkers[k] < 0 {
				outside++
				continue
			}
			pooled += int64(d)
		}
		if sum != pooled {
			t.Errorf("cycle %d: worker loads sum %d != pool task runtime %d", i, sum, pooled)
		}
		if want := b2i(c.Phase == PhaseHierarchy); outside != want || outside == 1 && c.TaskWorkers[0] != -1 {
			t.Errorf("cycle %d (%s): %d tasks charged outside the pool, want %d, as the first task", i, c.Phase, outside, want)
		}
		if im := c.Imbalance(); im < 1.0-1e-9 && im != 0 {
			t.Errorf("cycle %d: imbalance %.3f < 1", i, im)
		}
	}
}

// TestImbalanceComputation checks the metric directly.
func TestImbalanceComputation(t *testing.T) {
	c := &Cycle{WorkerLoads: []time.Duration{100, 100, 100, 100}}
	if im := c.Imbalance(); im < 0.999 || im > 1.001 {
		t.Errorf("balanced imbalance = %.3f, want 1", im)
	}
	c = &Cycle{WorkerLoads: []time.Duration{400, 0, 0, 0}}
	if im := c.Imbalance(); im < 3.999 || im > 4.001 {
		t.Errorf("single-straggler imbalance = %.3f, want 4", im)
	}
	if im := (&Cycle{}).Imbalance(); im != 0 {
		t.Errorf("empty imbalance = %.3f", im)
	}
}

type panickyReasoner struct {
	after int
	calls atomic.Int64
}

func (p *panickyReasoner) Sat(context.Context, *dl.Concept) (bool, error) { return true, nil }
func (p *panickyReasoner) Subs(context.Context, *dl.Concept, *dl.Concept) (bool, error) {
	if p.calls.Add(1) > int64(p.after) {
		panic("injected plug-in panic")
	}
	return false, nil
}

// TestPluginPanicRecovered: a panicking plug-in degrades only the tests
// it panics on — the run completes with a sound taxonomy, counts the
// panics in Stats.Recovered, and lists the affected pairs as undecided.
// No crashed process, no deadlocked barrier, no poisoned run.
func TestPluginPanicRecovered(t *testing.T) {
	for _, after := range []int{0, 3, 11} {
		tb := chainTBox(8)
		res, err := Classify(tb, Options{Reasoner: &panickyReasoner{after: after}, Workers: 4})
		if err != nil {
			t.Fatalf("after=%d: run failed instead of degrading: %v", after, err)
		}
		if res.Stats.Recovered == 0 {
			t.Fatalf("after=%d: no panics recorded in Stats.Recovered", after)
		}
		if len(res.Undecided) == 0 {
			t.Fatalf("after=%d: panicked tests missing from Result.Undecided", after)
		}
		for _, u := range res.Undecided {
			if u.Reason != "panic" {
				t.Errorf("after=%d: undecided reason = %q, want %q", after, u.Reason, "panic")
			}
			if !strings.Contains(u.String(), "panic") {
				t.Errorf("after=%d: undecided string %q", after, u)
			}
		}
		if res.Taxonomy == nil {
			t.Fatalf("after=%d: no taxonomy", after)
		}
	}
}

// slowReasoner answers correctly but takes a while per call, honoring
// the context like a well-behaved plug-in.
type slowReasoner struct{ d time.Duration }

func (s slowReasoner) Sat(context.Context, *dl.Concept) (bool, error) { return true, nil }
func (s slowReasoner) Subs(ctx context.Context, _, _ *dl.Concept) (bool, error) {
	t := time.NewTimer(s.d)
	defer t.Stop()
	select {
	case <-t.C:
		return false, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// TestClassifyContextCancel: cancelling the context aborts the run with
// the context error, well before the uncancelled run would finish.
func TestClassifyContextCancel(t *testing.T) {
	tb := chainTBox(40) // ~1600 pairs × 1ms would be seconds of work
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ClassifyContext(ctx, tb, Options{Reasoner: slowReasoner{time.Millisecond}, Workers: 2})
	if err == nil {
		t.Fatal("no error from cancelled classification")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestClassifyContextCompletes: an uncancelled context changes nothing.
func TestClassifyContextCompletes(t *testing.T) {
	tb := chainTBox(6)
	res, err := ClassifyContext(context.Background(), tb, Options{Reasoner: tableauFactory(tb), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Taxonomy == nil {
		t.Fatal("nil taxonomy")
	}
}
