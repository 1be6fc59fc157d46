package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var allSchedulings = []Scheduling{RoundRobin, Async}

// TestPoolDurationsInDispatchOrder submits more tasks than one duration
// chunk holds and checks the barrier reports every charged duration in
// dispatch order, with the per-worker loads accounting for the same total
// — the contract the virtual-time scheduler replays. The executing-worker
// record must name a real worker for every task, whatever the policy.
func TestPoolDurationsInDispatchOrder(t *testing.T) {
	for _, sched := range allSchedulings {
		p := newPool(4, sched, new(atomic.Int64))
		n := durChunkSize + 50 // force a second chunk
		for i := 0; i < n; i++ {
			d := time.Duration(i+1) * time.Microsecond
			p.submit(func() time.Duration { return d })
		}
		rep := p.barrier()
		if len(rep.Tasks) != n {
			t.Fatalf("%v: %d durations, want %d", sched, len(rep.Tasks), n)
		}
		var fromDurs, fromLoads time.Duration
		for i, d := range rep.Tasks {
			want := time.Duration(i+1) * time.Microsecond
			if d != want {
				t.Fatalf("%v: durs[%d] = %v, want %v (dispatch order)", sched, i, d, want)
			}
			fromDurs += d
		}
		if len(rep.TaskWorkers) != n {
			t.Fatalf("%v: %d worker records, want %d", sched, len(rep.TaskWorkers), n)
		}
		for i, w := range rep.TaskWorkers {
			if w < 0 || w >= 4 {
				t.Fatalf("%v: task %d ran on worker %d, want 0..3", sched, i, w)
			}
			if sched == RoundRobin && w != i%4 {
				t.Fatalf("%v: task %d ran on worker %d, want %d (i mod w)", sched, i, w, i%4)
			}
		}
		if len(rep.WorkerLoads) != 4 {
			t.Fatalf("%v: %d worker loads, want 4", sched, len(rep.WorkerLoads))
		}
		for _, l := range rep.WorkerLoads {
			fromLoads += l
		}
		if fromDurs != fromLoads {
			t.Errorf("%v: loads sum to %v, durations to %v", sched, fromLoads, fromDurs)
		}
		if sched == Async {
			var steals, stolen int64
			for w := 0; w < 4; w++ {
				steals += rep.Steals[w]
				stolen += rep.StolenFrom[w]
			}
			if steals != stolen {
				t.Errorf("steals total %d but stolenFrom total %d", steals, stolen)
			}
		} else if rep.Steals != nil || rep.StolenFrom != nil {
			t.Errorf("%v: steal counters reported for a non-stealing pool", sched)
		}
		if len(rep.WaitNanos) != 4 {
			t.Errorf("%v: %d wait records, want 4", sched, len(rep.WaitNanos))
		}
		p.close()
	}
}

// TestPoolBatchReuse runs a long batch then a short one on the same pool:
// recycled queue storage and duration slots must not leak stale values
// into the second batch.
func TestPoolBatchReuse(t *testing.T) {
	for _, sched := range allSchedulings {
		p := newPool(3, sched, new(atomic.Int64))
		for i := 0; i < durChunkSize+10; i++ {
			p.submit(func() time.Duration { return time.Second })
		}
		p.barrier()

		var ran atomic.Int64
		for i := 0; i < 5; i++ {
			p.submit(func() time.Duration { ran.Add(1); return time.Millisecond })
		}
		rep := p.barrier()
		if ran.Load() != 5 {
			t.Fatalf("%v: second batch ran %d tasks, want 5", sched, ran.Load())
		}
		if len(rep.Tasks) != 5 {
			t.Fatalf("%v: second batch reported %d durations, want 5", sched, len(rep.Tasks))
		}
		for i, d := range rep.Tasks {
			if d != time.Millisecond {
				t.Errorf("%v: durs[%d] = %v leaked from the first batch", sched, i, d)
			}
		}
		var total time.Duration
		for _, l := range rep.WorkerLoads {
			total += l
		}
		if total != 5*time.Millisecond {
			t.Errorf("%v: second-batch loads sum to %v, want 5ms", sched, total)
		}
		p.close()
	}
}

// TestPoolConcurrentSubmitters hammers the per-queue locks: several
// goroutines submit simultaneously while workers drain, across repeated
// batches. Run under -race this pins the submit/pop/steal/barrier
// happens-before chains of the pool.
func TestPoolConcurrentSubmitters(t *testing.T) {
	for _, sched := range allSchedulings {
		p := newPool(4, sched, new(atomic.Int64))
		var ran atomic.Int64
		for batch := 0; batch < 3; batch++ {
			var submitted sync.WaitGroup
			for g := 0; g < 6; g++ {
				submitted.Add(1)
				go func() {
					defer submitted.Done()
					for i := 0; i < 40; i++ {
						p.submit(func() time.Duration {
							ran.Add(1)
							return time.Microsecond
						})
					}
				}()
			}
			submitted.Wait()
			rep := p.barrier()
			if len(rep.Tasks) != 6*40 {
				t.Fatalf("%v batch %d: %d durations, want %d", sched, batch, len(rep.Tasks), 6*40)
			}
		}
		if ran.Load() != 3*6*40 {
			t.Fatalf("%v: ran %d tasks, want %d", sched, ran.Load(), 3*6*40)
		}
		p.close()
	}
}

// TestPoolStealingBalancesSkew blocks one worker inside a long task while
// a pile of cheap work sits queued behind it; under Async the other
// workers must steal that queued tail (the straggler-rescue path through
// the victim's inbox), or the barrier would deadlock.
func TestPoolStealingBalancesSkew(t *testing.T) {
	var runSteals atomic.Int64
	p := newPool(4, Async, &runSteals)
	defer p.close()
	started := make(chan struct{})
	release := make(chan struct{})
	// Task 0 blocks whichever worker picks it up; the barrier can only
	// pass if every task queued to that worker afterwards is stolen.
	p.submit(func() time.Duration {
		close(started)
		<-release
		return time.Millisecond
	})
	<-started
	var others atomic.Int64
	for i := 0; i < 40; i++ {
		p.submit(func() time.Duration {
			if others.Add(1) == 40 {
				close(release) // all queued work done; release the blocked worker
			}
			return time.Microsecond
		})
	}
	rep := p.barrier()
	if got := others.Load(); got != 40 {
		t.Fatalf("queued tasks ran %d times, want 40", got)
	}
	blocked := rep.TaskWorkers[0]
	// The 40 tasks round-robin over 4 queues, so exactly 10 landed on the
	// blocked worker's queue — and it could not run any of them.
	if rep.StolenFrom[blocked] < 10 {
		t.Fatalf("expected worker %d (blocked) to be stolen from >= 10 times, got %d",
			blocked, rep.StolenFrom[blocked])
	}
	var steals, stolen int64
	for w := 0; w < 4; w++ {
		steals += rep.Steals[w]
		stolen += rep.StolenFrom[w]
	}
	if steals != stolen {
		t.Fatalf("steals total %d but stolenFrom total %d", steals, stolen)
	}
	if got := runSteals.Load(); got != steals {
		t.Errorf("run steal counter %d, per-worker steals %d", got, steals)
	}
	if rep.TaskWorkers[0] == blocked && rep.Tasks[0] != time.Millisecond {
		t.Errorf("blocker's charged duration = %v, want 1ms", rep.Tasks[0])
	}
}
