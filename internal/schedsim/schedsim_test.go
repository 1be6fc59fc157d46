package schedsim

import (
	"testing"
	"testing/quick"
	"time"

	"parowl/internal/core"
)

func uniformTrace(tasksPerCycle, cycles int, each time.Duration) *core.Trace {
	tr := &core.Trace{}
	for c := 0; c < cycles; c++ {
		cyc := &core.Cycle{Phase: core.PhaseRandom, Index: c + 1}
		for t := 0; t < tasksPerCycle; t++ {
			cyc.Tasks = append(cyc.Tasks, each)
		}
		tr.Cycles = append(tr.Cycles, cyc)
	}
	return tr
}

func TestSingleWorkerSpeedupNearOne(t *testing.T) {
	tr := uniformTrace(16, 2, time.Millisecond)
	r := Simulate(tr, 1, Overhead{}, core.RoundRobin)
	if r.Speedup < 0.99 || r.Speedup > 1.01 {
		t.Errorf("speedup(w=1) = %.3f, want ≈1", r.Speedup)
	}
	if r.Elapsed != r.Runtime {
		t.Errorf("elapsed %v != runtime %v with no overhead", r.Elapsed, r.Runtime)
	}
}

func TestPerfectScalingWithoutOverhead(t *testing.T) {
	tr := uniformTrace(64, 1, time.Millisecond)
	for _, w := range []int{2, 4, 8, 16} {
		r := Simulate(tr, w, Overhead{}, core.RoundRobin)
		if r.Speedup < float64(w)*0.99 || r.Speedup > float64(w)*1.01 {
			t.Errorf("speedup(w=%d) = %.2f, want ≈%d", w, r.Speedup, w)
		}
	}
}

func TestSpeedupNeverExceedsWorkers(t *testing.T) {
	check := func(seed int64) bool {
		tasks := int(seed%37) + 1
		tr := uniformTrace(tasks, 3, time.Duration(seed%977+13)*time.Microsecond)
		for _, w := range []int{1, 3, 9, 40} {
			r := Simulate(tr, w, DefaultOverhead, core.RoundRobin)
			if r.Speedup > float64(w)+1e-9 {
				return false
			}
			if r.Speedup < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOverheadCausesPeakAndDegradation(t *testing.T) {
	// A small workload (few tasks per worker at high w) must peak and
	// then degrade, as in Fig. 9(a).
	tr := &core.Trace{}
	cyc := &core.Cycle{Phase: core.PhaseGroup, Index: 1}
	for i := 0; i < 2000; i++ {
		cyc.Tasks = append(cyc.Tasks, 50*time.Microsecond)
	}
	tr.Cycles = []*core.Cycle{cyc}
	var prev float64
	peaked := false
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
		r := Simulate(tr, w, DefaultOverhead, core.RoundRobin)
		if r.Speedup < prev {
			peaked = true
		}
		prev = r.Speedup
	}
	if !peaked {
		t.Error("no degradation observed even at w=512")
	}
}

func TestHeavyTailCapsSpeedup(t *testing.T) {
	// One task dominating the cycle bounds speedup by
	// total/longest — the Fig. 10(b) plateau, which even Async's greedy
	// replay cannot beat.
	tr := &core.Trace{}
	cyc := &core.Cycle{Phase: core.PhaseGroup, Index: 1}
	cyc.Tasks = append(cyc.Tasks, 100*time.Millisecond)
	for i := 0; i < 300; i++ {
		cyc.Tasks = append(cyc.Tasks, time.Millisecond)
	}
	tr.Cycles = []*core.Cycle{cyc}
	bound := 400.0 / 100.0 // total 400ms / longest 100ms = 4
	for _, w := range []int{8, 40, 80} {
		r := Simulate(tr, w, Overhead{}, core.Async)
		if r.Speedup > bound+0.01 {
			t.Errorf("speedup(w=%d) = %.2f exceeds heavy-tail bound %.2f", w, r.Speedup, bound)
		}
	}
	r := Simulate(tr, 80, Overhead{}, core.Async)
	if r.Speedup < 3.5 {
		t.Errorf("speedup(w=80) = %.2f, want ≈4 plateau", r.Speedup)
	}
}

// skewedTrace is one 16-task cycle whose every fourth task costs 10ms
// and the rest 1ms.
func skewedTrace() *core.Trace {
	cyc := &core.Cycle{Phase: core.PhaseGroup, Index: 1}
	for i := 0; i < 16; i++ {
		d := time.Millisecond
		if i%4 == 0 {
			d = 10 * time.Millisecond
		}
		cyc.Tasks = append(cyc.Tasks, d)
	}
	return &core.Trace{Cycles: []*core.Cycle{cyc}}
}

func TestRoundRobinVsWorkSharing(t *testing.T) {
	// With skewed task sizes, Async's greedy earliest-idle replay (work
	// shared at task granularity) is never slower than blind round-robin.
	tr := skewedTrace()
	rr := Simulate(tr, 4, Overhead{}, core.RoundRobin)
	as := Simulate(tr, 4, Overhead{}, core.Async)
	if as.Elapsed > rr.Elapsed {
		t.Errorf("async (%v) slower than round-robin (%v) on skewed tasks", as.Elapsed, rr.Elapsed)
	}
}

func TestAsyncReplayIsGreedyNotRoundRobin(t *testing.T) {
	// Every heavy task sits at a multiple of w = 4, so round-robin stacks
	// all four on worker 0 (40ms) while the greedy replay gives each
	// worker one and packs the cheap tail around them (13ms). An Async
	// trace replayed as i mod w would report 40ms.
	tr := skewedTrace()
	rr := Simulate(tr, 4, Overhead{}, core.RoundRobin)
	as := Simulate(tr, 4, Overhead{}, core.Async)
	if rr.Elapsed != 40*time.Millisecond {
		t.Fatalf("round-robin elapsed = %v, want 40ms", rr.Elapsed)
	}
	if as.Elapsed != 13*time.Millisecond {
		t.Errorf("async elapsed = %v, want the greedy makespan 13ms", as.Elapsed)
	}
	if as.Runtime != rr.Runtime {
		t.Errorf("async runtime %v != round-robin runtime %v; replay must only reassign work", as.Runtime, rr.Runtime)
	}
}

func TestSweepAndPeak(t *testing.T) {
	run := func(w int) (*core.Trace, error) {
		// Workload whose task count scales with w (like phase 1 groups).
		return uniformTrace(w, 1, time.Duration(1000/w)*time.Millisecond), nil
	}
	points, err := Sweep(run, []int{1, 2, 4, 8}, Overhead{}, core.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	if p := PeakWorkers(points); p != 8 {
		t.Errorf("peak = %d, want 8 under zero overhead", p)
	}
}

func TestEmptyTraceIsZero(t *testing.T) {
	r := Simulate(&core.Trace{}, 4, DefaultOverhead, core.RoundRobin)
	if r.Elapsed != 0 || r.Runtime != 0 || r.Speedup != 0 {
		t.Errorf("empty trace: %+v", r)
	}
}
