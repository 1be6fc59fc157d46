package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduling selects how tasks are assigned to the worker pool.
type Scheduling int

// Scheduling policies.
const (
	// RoundRobin assigns task i to worker i mod w, the paper's stated
	// policy for the group-division phase ("we apply round-robin
	// scheduling to ensure a good use of all threads").
	RoundRobin Scheduling = iota
	// Async is barrier-free classification over work-stealing deques: the
	// coordinator feeds each worker's Chase–Lev deque round-robin in
	// hardness order (longest processing time first), and an idle worker
	// steals from randomly chosen victims before parking, so stragglers
	// shed their queued tail — the per-test cost skew the paper's Sec. V-C
	// identifies as the limit on speedup. The coordinator streams work
	// continuously instead of rendezvousing after every cycle. Full
	// quiescence (the pending-task counter reaching zero) is reached only
	// at phase edges and when a checkpoint is due; each quiescence point
	// closes an epoch, and snapshots are cut exactly there, so they stay
	// as consistent as barrier-mode snapshots. Between epochs the group
	// phase refills bounded waves from the live P sets, so later waves are
	// cut from state already thinned by earlier pruning.
	Async
)

func (s Scheduling) String() string {
	if s == Async {
		return "async"
	}
	return "roundrobin"
}

// ParseScheduling maps a policy name (as printed by String) back to the
// constant, for CLI flags.
func ParseScheduling(name string) (Scheduling, error) {
	switch name {
	case "roundrobin":
		return RoundRobin, nil
	case "async":
		return Async, nil
	}
	return 0, fmt.Errorf("core: unknown scheduling policy %q (want roundrobin or async)", name)
}

// task is one unit of pool work; it returns its charged duration.
type task func() time.Duration

// poolTask pairs a task with its batch bookkeeping slot. Tasks are
// tracked by pointer so the work-stealing deque can move them between
// workers without copying.
type poolTask struct {
	fn   task
	cell *taskSlot
}

// taskSlot is one task's slot in the batch record: its charged duration
// and the worker that actually executed it (1-based; 0 = never ran).
// Completing tasks store into their slot without any lock; the barrier
// reads after the inflight WaitGroup has synchronized.
type taskSlot struct {
	dur atomic.Int64
	who atomic.Int32
}

// durChunkSize tasks share one slot chunk; chunks are allocated on demand
// and their backing arrays never move, so a completing task can store
// into its slot without any lock.
const durChunkSize = 256

type durChunk [durChunkSize]taskSlot

// workerQueue is one worker's submission queue under its own lock, so
// submit/take traffic for different workers never contends. Tasks are
// popped by advancing head rather than re-slicing, the popped slot is
// nilled so the batch's backing array does not pin completed task
// closures, and reset recycles the array for the next batch.
//
// Under Async the queue doubles as the worker's inbox: the
// coordinator is not the deque's owner and therefore may not push into
// it, so tasks land here and the owner drains them into its own deque in
// one lock acquisition. Thieves may also pop from a victim's inbox —
// that is what rescues tasks queued behind a straggler that never
// returns to drain.
type workerQueue struct {
	mu   sync.Mutex
	q    []*poolTask
	head int
}

func (wq *workerQueue) push(t *poolTask) {
	wq.mu.Lock()
	wq.q = append(wq.q, t)
	wq.mu.Unlock()
}

func (wq *workerQueue) pop() (*poolTask, bool) {
	wq.mu.Lock()
	defer wq.mu.Unlock()
	if wq.head >= len(wq.q) {
		return nil, false
	}
	t := wq.q[wq.head]
	wq.q[wq.head] = nil
	wq.head++
	return t, true
}

// drain takes every queued task at once (one lock acquisition) and
// leaves the queue empty but its storage intact for reuse.
func (wq *workerQueue) drain() []*poolTask {
	wq.mu.Lock()
	defer wq.mu.Unlock()
	if wq.head >= len(wq.q) {
		return nil
	}
	out := make([]*poolTask, len(wq.q)-wq.head)
	for i := range out {
		out[i] = wq.q[wq.head+i]
		wq.q[wq.head+i] = nil
	}
	wq.head = len(wq.q)
	return out
}

// reset recycles the queue's storage; called only at the barrier, when
// every submitted task has completed. The mutex makes it safe against a
// late thief still probing the queue: the thief observes either the
// drained pre-reset state or the empty post-reset state, never a torn
// one.
func (wq *workerQueue) reset() {
	wq.mu.Lock()
	wq.q = wq.q[:0]
	wq.head = 0
	wq.mu.Unlock()
}

// pool is the fixed worker pool of Algorithm 1 (createWorkerPool). It is
// created once per classification run and reused across phases; each
// phase submits a batch of tasks and waits on the barrier.
//
// Under RoundRobin each worker owns a queue and a wake channel, so a
// wakeup can never be consumed by a worker whose queue is empty; under
// Async each worker drains its round-robin-fed queue into a private
// Chase–Lev deque and steals from random victims when idle, while the
// coordinator feeds continuous waves bounded by waitLow instead of
// batch+barrier (see async.go). Each queue has its own lock and
// completed tasks record their duration with an atomic store into a
// pre-assigned chunk slot, so the only shared lock left (submitMu) is
// taken by the submitting goroutine alone.
type pool struct {
	workers    int
	scheduling Scheduling

	queues []workerQueue
	deques []wsDeque // non-nil only under Async

	// Batch bookkeeping, guarded by submitMu. Only the submitter takes
	// this lock: tasks store durations straight into their chunk slot,
	// and the barrier reads after inflight.Wait has synchronized.
	submitMu sync.Mutex
	next     int // round-robin cursor
	count    int // tasks submitted this batch
	durs     []*durChunk

	// busy[id] is the charged load worker id carried this batch. Each
	// entry is written only by its owning worker goroutine; the
	// WaitGroup in barrier orders those writes before the read, and the
	// queue locks order the barrier's slice swap before the next batch.
	busy []time.Duration

	// steals/stolenFrom are this batch's per-worker steal counters (Async
	// only); runSteals is the run's Stats.Steals cell, which every steal
	// also adds to.
	steals     []atomic.Int64
	stolenFrom []atomic.Int64
	runSteals  *atomic.Int64

	// waits[w] accumulates the nanoseconds worker w spent parked on its
	// wake channel this batch; the barrier swaps them out. This is the
	// straggler-tail measurement: under RoundRobin an early finisher
	// parks until the next batch wakes it, under Async it is re-fed
	// before it parks.
	waits []atomic.Int64

	// pending counts submitted-but-unfinished tasks; together with
	// taskDone it is the quiescence detector the Async driver paces on:
	// waitLow blocks until the backlog drains below a watermark, and
	// pending == 0 is full quiescence (every claimed pair's outcome is
	// recorded), the only state snapshots are cut in. epoch counts
	// quiescence points passed (every barrier closes one epoch); it is
	// what checkpoint snapshots are tagged with.
	pending  atomic.Int64
	taskDone chan struct{}
	epoch    atomic.Int64

	inflight sync.WaitGroup
	wake     []chan struct{}
	quit     chan struct{}
	done     sync.WaitGroup

	// onPanic receives recovered task panics; without it a panicking
	// plug-in would kill the process or deadlock the barrier.
	onPanic func(any)
}

// newPool starts w workers; runSteals is the counter every steal adds to.
func newPool(w int, sched Scheduling, runSteals *atomic.Int64) *pool {
	if w < 1 {
		w = 1
	}
	p := &pool{
		workers:    w,
		scheduling: sched,
		queues:     make([]workerQueue, w),
		busy:       make([]time.Duration, w),
		waits:      make([]atomic.Int64, w),
		wake:       make([]chan struct{}, w),
		quit:       make(chan struct{}),
		taskDone:   make(chan struct{}, 1),
		runSteals:  runSteals,
	}
	if sched == Async {
		p.deques = make([]wsDeque, w)
		p.steals = make([]atomic.Int64, w)
		p.stolenFrom = make([]atomic.Int64, w)
	}
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
	}
	p.done.Add(w)
	for i := 0; i < w; i++ {
		go p.worker(i)
	}
	return p
}

// slotFor returns the queue the next task goes to, round-robin; the
// caller must hold submitMu.
func (p *pool) slotFor() int {
	slot := p.next % p.workers
	p.next++
	return slot
}

// submit enqueues one task for the barrier of the current batch. Task
// durations are recorded in dispatch order so the virtual-time scheduler
// can replay the assignment (task i → worker i mod w under RoundRobin;
// greedy earliest-idle under Async).
func (p *pool) submit(t task) {
	p.inflight.Add(1)
	p.pending.Add(1)
	p.submitMu.Lock()
	slot := p.slotFor()
	idx := p.count
	p.count++
	if idx/durChunkSize >= len(p.durs) {
		p.durs = append(p.durs, new(durChunk))
	}
	cell := &p.durs[idx/durChunkSize][idx%durChunkSize]
	p.submitMu.Unlock()
	p.queues[slot].push(&poolTask{fn: t, cell: cell})
	if p.scheduling == RoundRobin {
		select {
		case p.wake[slot] <- struct{}{}:
		default:
		}
		return
	}
	// Async: the owner may be mid-task, and any parked worker can steal
	// it — nudge them all (non-blocking).
	for i := range p.wake {
		select {
		case p.wake[i] <- struct{}{}:
		default:
		}
	}
}

// barrier waits for every submitted task to finish and returns the
// batch's task record as a Cycle with only its task fields set: task
// durations and executing workers in dispatch order together with the
// per-worker charged loads (the paper's Sec. V-C load-balancing
// measurement), parked times and, under Async, steal counts.
func (p *pool) barrier() *Cycle {
	p.inflight.Wait()
	p.submitMu.Lock()
	c := &Cycle{
		Tasks:       make([]time.Duration, p.count),
		TaskWorkers: make([]int, p.count),
	}
	for i := range c.Tasks {
		cell := &p.durs[i/durChunkSize][i%durChunkSize]
		c.Tasks[i] = time.Duration(cell.dur.Load())
		c.TaskWorkers[i] = int(cell.who.Load()) - 1
		// A reused slot must not leak into the next batch.
		cell.dur.Store(0)
		cell.who.Store(0)
	}
	p.count = 0
	p.next = 0
	p.submitMu.Unlock()
	for i := range p.queues {
		p.queues[i].reset()
	}
	if p.scheduling == Async {
		// Checkpoints are taken at barriers on the strength of this
		// invariant: every task of the batch has run, so no deque may
		// still hold one. The deque indices themselves are monotonic and
		// are deliberately left alone — a late thief racing this barrier
		// sees an empty deque, not a reset one.
		for i := range p.deques {
			if !p.deques[i].empty() {
				panic(fmt.Sprintf("core: pool barrier passed with worker %d's deque non-empty", i))
			}
		}
		c.Steals = make([]int64, p.workers)
		c.StolenFrom = make([]int64, p.workers)
		for i := 0; i < p.workers; i++ {
			c.Steals[i] = p.steals[i].Swap(0)
			c.StolenFrom[i] = p.stolenFrom[i].Swap(0)
		}
	}
	c.WaitNanos = make([]int64, p.workers)
	for i := 0; i < p.workers; i++ {
		c.WaitNanos[i] = p.waits[i].Swap(0)
	}
	c.WorkerLoads = p.busy
	p.busy = make([]time.Duration, p.workers)
	// Every barrier pass is a quiescence point: all submitted work has
	// completed and recorded its outcome. Closing an epoch here gives
	// snapshots (and the Async driver) a monotonic consistency marker.
	p.epoch.Add(1)
	return c
}

// pendingTasks reports the submitted-but-unfinished task count.
func (p *pool) pendingTasks() int64 { return p.pending.Load() }

// waitLow blocks until at most low submitted tasks remain unfinished.
// This is the Async driver's pacing primitive: instead of a barrier it
// waits only until enough of the pool has gone idle to be worth feeding
// again, while stragglers keep running. Only the coordinator calls it.
func (p *pool) waitLow(low int64) {
	for p.pending.Load() > low {
		<-p.taskDone
	}
}

// close stops the workers; call only after a final barrier.
func (p *pool) close() {
	close(p.quit)
	p.done.Wait()
}

func (p *pool) worker(id int) {
	defer p.done.Done()
	if p.scheduling == Async {
		p.stealWorker(id)
		return
	}
	wake := p.wake[id]
	for {
		t, ok := p.queues[id].pop()
		if !ok {
			if !p.park(id, wake) {
				return
			}
			continue
		}
		p.runTask(id, t)
	}
}

// park blocks worker id on its wake channel, charging the parked time to
// the worker's wait counter; it returns false when the pool is closing.
// Parked time is the per-worker straggler-tail metric surfaced as
// Trace.Cycle.WaitNanos: under RoundRobin every early finisher parks
// here until the whole batch completes and the next one is submitted.
func (p *pool) park(id int, wake chan struct{}) bool {
	start := time.Now()
	select {
	case <-wake:
		p.waits[id].Add(int64(time.Since(start)))
		return true
	case <-p.quit:
		return false
	}
}

// stealWorker is the Async worker loop: run own work (deque, then
// inbox), then try to steal, then yield and retry the steal once, then
// park on the wake channel. The single retry after a yield is the
// backoff: it catches a victim that was between its inbox drain and its
// deque publish without spinning the CPU while queues stay empty.
func (p *pool) stealWorker(id int) {
	wake := p.wake[id]
	// Cheap xorshift state, decorrelated per worker so thieves fan out
	// over different victims instead of convoying on one deque.
	rng := uint64(id)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for {
		if t, ok := p.localNext(id); ok {
			p.runTask(id, t)
			continue
		}
		if t, victim, ok := p.trySteal(id, &rng); ok {
			p.recordSteal(id, victim)
			p.runTask(id, t)
			continue
		}
		runtime.Gosched()
		if t, victim, ok := p.trySteal(id, &rng); ok {
			p.recordSteal(id, victim)
			p.runTask(id, t)
			continue
		}
		if !p.park(id, wake) {
			return
		}
	}
}

// localNext returns worker id's next own task: the youngest deque entry,
// or — when the deque is empty — the submission inbox drained into the
// deque. The drain pushes in reverse so that LIFO pops replay submission
// order: the coordinator submits hardest-first (LPT), so the owner always
// starts its biggest pending task next while thieves, stealing FIFO from
// the top, mop up the cheap tail.
func (p *pool) localNext(id int) (*poolTask, bool) {
	if t, ok := p.deques[id].pop(); ok {
		return t, true
	}
	batch := p.queues[id].drain()
	if len(batch) == 0 {
		return nil, false
	}
	for i := len(batch) - 1; i > 0; i-- {
		p.deques[id].push(batch[i])
	}
	return batch[0], true
}

// trySteal scans every other worker once, starting from a random victim:
// first the victim's deque (lock-free, oldest task), then its submission
// inbox (mutex, for tasks queued behind a straggler that never drains).
func (p *pool) trySteal(id int, rng *uint64) (*poolTask, int, bool) {
	if p.workers == 1 {
		return nil, 0, false
	}
	x := *rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	off := int(x % uint64(p.workers))
	for k := 0; k < p.workers; k++ {
		v := (off + k) % p.workers
		if v == id {
			continue
		}
		if t, ok := p.deques[v].steal(); ok {
			return t, v, true
		}
		if t, ok := p.queues[v].pop(); ok {
			return t, v, true
		}
	}
	return nil, 0, false
}

func (p *pool) recordSteal(thief, victim int) {
	p.steals[thief].Add(1)
	p.stolenFrom[victim].Add(1)
	p.runSteals.Add(1)
}

// runTask executes one task, converting panics into onPanic callbacks so
// the barrier always completes.
func (p *pool) runTask(id int, t *poolTask) {
	defer p.inflight.Done()
	defer func() {
		p.pending.Add(-1)
		select {
		case p.taskDone <- struct{}{}:
		default:
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			if p.onPanic != nil {
				p.onPanic(r)
			}
		}
	}()
	t.cell.who.Store(int32(id + 1))
	d := t.fn()
	t.cell.dur.Store(int64(d))
	p.busy[id] += d
}
