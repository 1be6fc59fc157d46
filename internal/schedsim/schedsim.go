// Package schedsim replays a classification trace on w virtual workers in
// simulated time, computing the paper's speedup metric — the sum of all
// thread runtimes divided by the elapsed time (paper Sec. V-A) — without
// needing a 60-core SMP server.
//
// The paper ran an HP DL580 with four 15-core Xeons and swept w from 1 to
// 140 (Figs. 9-10). This repository runs on arbitrary hardware, so the
// figure harness instead runs the real classifier with an oracle plug-in
// (charging each test its deterministic virtual cost), collects the exact
// task stream the pool dispatched, and feeds it to Simulate. The simulated
// pool replays the real pool's policy — round-robin assignment, or Async's
// work stealing (whose virtual-time equivalent is greedy earliest-idle
// assignment over the LPT-sorted batch) — only the clock is virtual. An
// overhead model — per-task dispatch cost and a per-cycle barrier whose
// cost grows with w — reproduces the behaviour the paper
// observes: speedup climbs roughly linearly, peaks when partitions n/w get
// too small, then degrades (Fig. 9(a)).
package schedsim

import (
	"fmt"
	"sort"
	"time"

	"parowl/internal/core"
)

// greedyAssign gives one task to the earliest-free virtual worker.
func greedyAssign(loads []time.Duration, t time.Duration, ov Overhead) {
	min := 0
	for i := 1; i < len(loads); i++ {
		if loads[i] < loads[min] {
			min = i
		}
	}
	loads[min] += t + ov.PerTask
}

// Overhead parametrizes the scheduling cost model.
type Overhead struct {
	// PerTask is added to every dispatched task (queue hop, cache warmup).
	PerTask time.Duration
	// PerWorkerCycle is paid once per cycle by each worker that received
	// at least one task (thread wakeup, partition setup).
	PerWorkerCycle time.Duration
	// BarrierPerWorker models the synchronization fan-in at each cycle
	// barrier: the barrier costs BarrierPerWorker × w of elapsed time.
	BarrierPerWorker time.Duration
}

// DefaultOverhead is calibrated so that small-ontology runs peak in the
// paper's observed 20-32 worker range while large ontologies still scale
// at w = 140.
var DefaultOverhead = Overhead{
	PerTask:          20 * time.Microsecond,
	PerWorkerCycle:   50 * time.Microsecond,
	BarrierPerWorker: 150 * time.Microsecond,
}

// Result is one simulated configuration.
type Result struct {
	Workers int
	// Elapsed is the simulated wall-clock (makespan incl. barriers).
	Elapsed time.Duration
	// Runtime is the summed active time of all workers.
	Runtime time.Duration
	// Speedup = Runtime / Elapsed, the paper's metric.
	Speedup float64
}

func (r Result) String() string {
	return fmt.Sprintf("w=%-3d elapsed=%-12v runtime=%-12v speedup=%.2f",
		r.Workers, r.Elapsed, r.Runtime, r.Speedup)
}

// Simulate replays every cycle of the trace on w virtual workers. The
// trace must come from a run whose pool also used w workers (the group
// partition sizes depend on w), with the same scheduling policy.
func Simulate(trace *core.Trace, w int, ov Overhead, sched core.Scheduling) Result {
	if w < 1 {
		w = 1
	}
	var elapsed, runtime time.Duration
	for _, c := range trace.Cycles {
		ce, cr := simulateCycle(c.Tasks, w, ov, sched)
		elapsed += ce
		runtime += cr
	}
	res := Result{Workers: w, Elapsed: elapsed, Runtime: runtime}
	if elapsed > 0 {
		res.Speedup = float64(runtime) / float64(elapsed)
	}
	return res
}

// simulateCycle schedules one barrier-delimited batch.
func simulateCycle(tasks []time.Duration, w int, ov Overhead, sched core.Scheduling) (elapsed, runtime time.Duration) {
	if len(tasks) == 0 {
		return 0, 0
	}
	loads := make([]time.Duration, w)
	if sched == core.Async {
		// Virtual-time equivalent of stealing: a worker going idle
		// immediately takes the next pending task, which is exactly
		// greedy earliest-idle assignment over the LPT order the real
		// coordinator dispatches (replayed from the measured durations,
		// which the coordinator's hardness EWMAs only estimate).
		sorted := append([]time.Duration(nil), tasks...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		for _, t := range sorted {
			greedyAssign(loads, t, ov)
		}
	} else { // RoundRobin, the paper's policy
		for i, t := range tasks {
			loads[i%w] += t + ov.PerTask
		}
	}
	var max time.Duration
	for _, l := range loads {
		if l > 0 {
			l += ov.PerWorkerCycle
			runtime += l
		}
		if l > max {
			max = l
		}
	}
	elapsed = max + time.Duration(w)*ov.BarrierPerWorker
	return elapsed, runtime
}

// SweepPoint is one (w, speedup) sample of a scalability curve.
type SweepPoint struct {
	Workers int
	Speedup float64
	Elapsed time.Duration
	Runtime time.Duration
}

// Runner produces a trace for a given worker count; the figure harness
// wires it to a real classification run with Workers = w.
type Runner func(w int) (*core.Trace, error)

// Sweep runs the runner for each worker count and simulates its trace,
// producing one scalability curve.
func Sweep(run Runner, workers []int, ov Overhead, sched core.Scheduling) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(workers))
	for _, w := range workers {
		trace, err := run(w)
		if err != nil {
			return nil, fmt.Errorf("schedsim: sweep at w=%d: %w", w, err)
		}
		r := Simulate(trace, w, ov, sched)
		out = append(out, SweepPoint{Workers: w, Speedup: r.Speedup, Elapsed: r.Elapsed, Runtime: r.Runtime})
	}
	return out, nil
}

// PeakWorkers returns the worker count with the highest speedup in a
// sweep (the paper reports peaks at 20-32 workers for small ontologies
// and at 140 for medium/large ones).
func PeakWorkers(points []SweepPoint) int {
	best, bestW := -1.0, 0
	for _, p := range points {
		if p.Speedup > best {
			best, bestW = p.Speedup, p.Workers
		}
	}
	return bestW
}
