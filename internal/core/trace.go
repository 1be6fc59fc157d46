package core

import (
	"fmt"
	"strings"
	"time"
)

// Phase identifies which classification phase produced a cycle or task.
type Phase string

// Phases of the classification pipeline.
const (
	PhasePrepass   Phase = "prepass"   // optional EL pre-saturation seeding
	PhaseRandom    Phase = "random"    // phase 1: random division
	PhaseGroup     Phase = "group"     // phase 2: group division
	PhaseHierarchy Phase = "hierarchy" // phase 3: divide-and-conquer taxonomy
)

// Cycle records one division cycle: the task record its barrier
// returned (the tasks dispatched, with their charged costs, and the
// per-worker loads, waits and steals), the run's counter deltas over
// the cycle, and the remaining-possible count after the barrier.
// Figure 11's Possible and runtime ratios are computed from these
// records, and the virtual-time scheduler (internal/schedsim) replays
// the task durations on w simulated workers to produce the speedup
// curves of Figures 9 and 10.
type Cycle struct {
	Phase Phase
	Index int // cycle number within its phase, starting at 1

	// Tasks holds one charged duration per dispatched task (a group), in
	// dispatch order — the round-robin assignment maps task i to worker
	// i mod w. A task is charged once, when it ends: its wall time, which
	// for a random or group task covers its claims, sat? probes and
	// pruning as well as its tests. Under a reasoner.Virtual plug-in a
	// random, group or prepass sat? task is charged the summed virtual
	// cost of its subs? tests instead (0 for a sat? sweep).
	Tasks []time.Duration

	// TaskWorkers records, parallel to Tasks, the pool worker that
	// actually executed each task (-1 for work charged outside the pool,
	// e.g. the prepass seeding pseudo-task). Under RoundRobin this
	// replays i mod w; under Async the assignment is dynamic and
	// this is the only record of it.
	TaskWorkers []int

	// Steals and StolenFrom are per-worker steal counters for the cycle
	// (index = worker id; nil unless the run used Async):
	// Steals[w] counts tasks worker w took from other workers' queues,
	// StolenFrom[w] counts tasks thieves took from worker w's queues.
	// Steals shadows the embedded Stats.Steals, the cycle's total.
	Steals     []int64
	StolenFrom []int64

	// WaitNanos[w] is the time worker w spent parked waiting for work
	// during the cycle, in nanoseconds (both policies). Under RoundRobin
	// this is the straggler tail: an early finisher parks until the
	// batch's last task completes and the next batch wakes it. Async
	// exists to shrink exactly this number.
	WaitNanos []int64

	// WorkerLoads is the charged load each pool worker carried during
	// the cycle (index = worker id); the paper's Sec. V-C load-balancing
	// analysis compares these across the two phases.
	WorkerLoads []time.Duration

	// Stats holds what the run's counters gained during the cycle:
	// SubsTests and SatTests count reasoner calls, Pruned pairs resolved
	// without a call, PreSeeded and FilterHits the cheap-first pipeline's
	// savings (zero with the pipeline off).
	Stats

	// RemainingPossible is |R_O| after the cycle's barrier.
	RemainingPossible int64
}

// chargeOutside prepends d as a pseudo-task that ran on no pool worker
// (-1): work the coordinator did itself, kept aligned in Tasks and
// TaskWorkers.
func (c *Cycle) chargeOutside(d time.Duration) {
	c.Tasks = append([]time.Duration{d}, c.Tasks...)
	c.TaskWorkers = append([]int{-1}, c.TaskWorkers...)
}

// merge appends o's tasks to c and adds o's per-worker loads, waits and
// steals to c's, so two barrier-delimited batches are recorded as one
// cycle.
func (c *Cycle) merge(o *Cycle) {
	c.Tasks = append(c.Tasks, o.Tasks...)
	c.TaskWorkers = append(c.TaskWorkers, o.TaskWorkers...)
	for i := range c.WorkerLoads {
		c.WorkerLoads[i] += o.WorkerLoads[i]
		c.WaitNanos[i] += o.WaitNanos[i]
	}
	for i := range c.Steals {
		c.Steals[i] += o.Steals[i]
		c.StolenFrom[i] += o.StolenFrom[i]
	}
}

// Runtime returns the cycle's summed task durations — the paper's
// "runtime" (sum of runtimes of all threads) restricted to this cycle.
func (c *Cycle) Runtime() time.Duration {
	var total time.Duration
	for _, t := range c.Tasks {
		total += t
	}
	return total
}

// Imbalance is max worker load divided by mean worker load for the cycle
// (1.0 = perfectly balanced; large values mean stragglers). Workers that
// received no task still count toward the mean.
func (c *Cycle) Imbalance() float64 {
	if len(c.WorkerLoads) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, l := range c.WorkerLoads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(c.WorkerLoads))
	return float64(max) / mean
}

// TotalSteals sums the cycle's steal counters.
func (c *Cycle) TotalSteals() int64 {
	var n int64
	for _, s := range c.Steals {
		n += s
	}
	return n
}

// Trace is the full instrumentation record of one classification run.
type Trace struct {
	InitialPossible int64
	Cycles          []*Cycle

	// Workers is the pool size the run used.
	Workers int
	// Scheduling is the policy the pool ran under.
	Scheduling Scheduling
	// WallElapsed is the measured wall-clock duration of the whole run.
	WallElapsed time.Duration
}

// TotalRuntime sums all task durations across all cycles (the paper's
// "runtime": the sum of the runtimes of all threads).
func (t *Trace) TotalRuntime() time.Duration {
	var total time.Duration
	for _, c := range t.Cycles {
		total += c.Runtime()
	}
	return total
}

// TotalSteals counts tasks that changed workers across the run
// (Async only; zero otherwise).
func (t *Trace) TotalSteals() int64 {
	var n int64
	for _, c := range t.Cycles {
		n += c.TotalSteals()
	}
	return n
}

// WorkerWaits aggregates the time each worker spent parked waiting for
// work over the whole run.
func (t *Trace) WorkerWaits() []time.Duration {
	waits := make([]time.Duration, t.Workers)
	for _, c := range t.Cycles {
		for w, ns := range c.WaitNanos {
			if w >= 0 && w < len(waits) {
				waits[w] += time.Duration(ns)
			}
		}
	}
	return waits
}

// TotalWait sums the parked time across all workers and cycles.
func (t *Trace) TotalWait() time.Duration {
	var total time.Duration
	for _, w := range t.WorkerWaits() {
		total += w
	}
	return total
}

// WorkerTotals aggregates the charged load each worker carried over the
// whole run.
func (t *Trace) WorkerTotals() []time.Duration {
	loads := make([]time.Duration, t.Workers)
	for _, c := range t.Cycles {
		for w, l := range c.WorkerLoads {
			if w >= 0 && w < len(loads) {
				loads[w] += l
			}
		}
	}
	return loads
}

// OverallImbalance is max worker load divided by mean worker load,
// aggregated over the whole run (1.0 = perfectly balanced).
func (t *Trace) OverallImbalance() float64 {
	loads := t.WorkerTotals()
	if len(loads) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(loads)))
}

// LoadSummary renders the per-worker load, wait, and steal-count table
// for the whole run (the paper's Sec. V-C load-balancing table, extended
// with the stealing counters when the run used Async).
// The wait column is each worker's parked time — the straggler tail the
// barrier-free Async policy is built to shrink.
func (t *Trace) LoadSummary() string {
	loads := t.WorkerTotals()
	waits := t.WorkerWaits()
	steals := make([]int64, t.Workers)
	stolen := make([]int64, t.Workers)
	haveSteals := false
	for _, c := range t.Cycles {
		for w, n := range c.Steals {
			if w < len(steals) {
				steals[w] += n
				haveSteals = true
			}
		}
		for w, n := range c.StolenFrom {
			if w < len(stolen) {
				stolen[w] += n
			}
		}
	}
	var b strings.Builder
	for w, l := range loads {
		fmt.Fprintf(&b, "worker %2d load=%-12v wait=%-12v", w, l, waits[w])
		if haveSteals {
			fmt.Fprintf(&b, " steals=%-5d stolenFrom=%-5d", steals[w], stolen[w])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "imbalance (max/mean): %.2f, total wait: %v", t.OverallImbalance(), t.TotalWait())
	if haveSteals {
		fmt.Fprintf(&b, ", total steals: %d", t.TotalSteals())
	}
	b.WriteByte('\n')
	return b.String()
}

// PossibleRatio computes the paper's Definition 3 for the cycle at
// position i (0-based over all cycles):
//
//	Possible = (InitialPossible − RemainingPossible_i) / InitialPossible
//
// expressed in percent, as plotted in Fig. 11.
func (t *Trace) PossibleRatio(i int) float64 {
	if t.InitialPossible == 0 {
		return 0
	}
	rem := t.Cycles[i].RemainingPossible
	return 100 * float64(t.InitialPossible-rem) / float64(t.InitialPossible)
}

// RuntimeRatio computes the accumulated cycle runtime through cycle i
// divided by the total runtime, in percent (Fig. 11's second series).
func (t *Trace) RuntimeRatio(i int) float64 {
	total := t.TotalRuntime()
	if total == 0 {
		return 0
	}
	var acc time.Duration
	for j := 0; j <= i && j < len(t.Cycles); j++ {
		acc += t.Cycles[j].Runtime()
	}
	return 100 * float64(acc) / float64(total)
}

// String renders a per-cycle summary table.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "initial possible: %d, workers: %d\n", t.InitialPossible, t.Workers)
	for i, c := range t.Cycles {
		fmt.Fprintf(&b, "cycle %2d %-9s tasks=%-4d tests=%-6d pruned=%-6d preseed=%-6d filter=%-6d remaining=%-8d possible=%5.1f%% runtime=%5.1f%% imbalance=%.2f",
			i+1, c.Phase, len(c.Tasks), c.SubsTests, c.Pruned, c.PreSeeded, c.FilterHits, c.RemainingPossible,
			t.PossibleRatio(i), t.RuntimeRatio(i), c.Imbalance())
		if c.Steals != nil {
			fmt.Fprintf(&b, " steals=%d", c.TotalSteals())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
