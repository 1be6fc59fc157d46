package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDequeOwnerThiefProperty is the Chase–Lev correctness property under
// contention: one owner goroutine pushes and pops at the bottom while
// several thieves steal from the top concurrently. Every pushed task must
// be claimed exactly once — by the owner or by exactly one thief — with
// none lost and none claimed twice. Run under -race this also exercises
// the grow path (the deque starts at wsMinCap and the owner pushes far
// more than that before popping).
func TestDequeOwnerThiefProperty(t *testing.T) {
	const (
		thieves = 4
		total   = 20000
	)
	var d wsDeque
	tasks := make([]poolTask, total)
	claimed := make([]atomic.Int32, total)
	index := make(map[*poolTask]int, total)
	for i := range tasks {
		index[&tasks[i]] = i
	}

	claim := func(pt *poolTask) {
		i, ok := index[pt]
		if !ok {
			t.Error("claimed a task that was never pushed")
			return
		}
		if claimed[i].Add(1) != 1 {
			t.Errorf("task %d claimed more than once", i)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if pt, ok := d.steal(); ok {
					claim(pt)
				}
			}
			// Final sweep so nothing the owner left behind is counted as
			// lost only because the thief quit early.
			for {
				pt, ok := d.steal()
				if !ok {
					return
				}
				claim(pt)
			}
		}()
	}

	// Owner: bursts of pushes interleaved with pops, in waves sized to
	// force several ring growths (wsMinCap is far smaller than a wave).
	pushed := 0
	for pushed < total {
		wave := wsMinCap*4 + pushed%97
		if pushed+wave > total {
			wave = total - pushed
		}
		for i := 0; i < wave; i++ {
			d.push(&tasks[pushed])
			pushed++
		}
		// Pop about half the wave back; thieves race for the rest.
		for i := 0; i < wave/2; i++ {
			pt, ok := d.pop()
			if !ok {
				break
			}
			claim(pt)
		}
	}
	// Owner drains what's left before signalling the thieves to finish.
	for {
		pt, ok := d.pop()
		if !ok {
			break
		}
		claim(pt)
	}
	stop.Store(true)
	wg.Wait()

	if !d.empty() {
		t.Fatal("deque not empty after full drain")
	}
	for i := range claimed {
		if got := claimed[i].Load(); got != 1 {
			t.Fatalf("task %d claimed %d times, want exactly 1", i, got)
		}
	}
}

// TestDequeLastElementRace pins the single-element tie: with exactly one
// task in the deque, the owner's pop and a thief's steal race for it via
// the CAS on top — exactly one side may win each round. Repeating the
// race thousands of times under -race catches both the lost-task and the
// double-claim failure mode.
func TestDequeLastElementRace(t *testing.T) {
	var d wsDeque
	task := poolTask{}
	const rounds = 5000
	for r := 0; r < rounds; r++ {
		d.push(&task)
		var ownerGot, thiefGot atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, ok := d.pop(); ok {
				ownerGot.Store(true)
			}
		}()
		go func() {
			defer wg.Done()
			if _, ok := d.steal(); ok {
				thiefGot.Store(true)
			}
		}()
		wg.Wait()
		if ownerGot.Load() == thiefGot.Load() {
			t.Fatalf("round %d: owner=%v thief=%v, want exactly one winner",
				r, ownerGot.Load(), thiefGot.Load())
		}
		if !d.empty() {
			t.Fatalf("round %d: deque non-empty after the race", r)
		}
	}
}

// TestWorkerQueueResetLateThief is the barrier regression test: reset
// recycles a queue's storage after every task of the batch completed, but
// a thief that lost a wake race may still probe the queue concurrently.
// The thief must observe either "empty before reset" or "empty after
// reset" — never a stale task, a double pop, or a torn slice. The
// stronger invariant (no task from the finished batch can surface) holds
// because reset only runs once the barrier proved the queue drained; here
// we hammer pop/drain against reset to let -race validate the locking.
func TestWorkerQueueResetLateThief(t *testing.T) {
	var wq workerQueue
	var claimed atomic.Int64
	const batches = 300
	done := make(chan struct{})
	go func() { // the late thief
		defer close(done)
		for claimed.Load() < batches {
			if _, ok := wq.pop(); ok {
				claimed.Add(1)
			}
			for range wq.drain() {
				claimed.Add(1)
			}
		}
	}()
	tasks := make([]poolTask, 8)
	for b := 0; b < batches; b++ {
		wq.push(&tasks[b%len(tasks)])
		// Drain like a barrier would observe: spin until the thief (or
		// this drain) empties the queue, then reset the storage while the
		// thief keeps probing.
		for range wq.drain() {
			claimed.Add(1)
		}
		wq.reset()
	}
	for claimed.Load() < batches {
		if _, ok := wq.pop(); ok {
			claimed.Add(1)
		}
	}
	<-done
	if got := claimed.Load(); got != batches {
		t.Fatalf("claimed %d tasks across resets, want %d", got, batches)
	}
}

// TestBarrierAssertsDequesEmpty locks in that the Async pool's barrier
// asserts (rather than silently tolerates) a non-empty deque, since
// checkpoint consistency rests on that invariant.
func TestBarrierAssertsDequesEmpty(t *testing.T) {
	p := newPool(2, Async, new(atomic.Int64))
	p.submit(func() time.Duration { return time.Microsecond })
	p.barrier() // sanity: a normal barrier passes
	// Stop the workers before sneaking a task into a deque behind the
	// pool's back: a live worker could run it (it was never counted in
	// inflight), and a push from this goroutine would break the deque's
	// owner-only rule.
	p.close()

	p.deques[0].push(&poolTask{fn: func() time.Duration { return 0 }, cell: &taskSlot{}})
	defer func() {
		if recover() == nil {
			t.Fatal("barrier did not panic on a non-empty deque")
		}
	}()
	p.barrier()
}
