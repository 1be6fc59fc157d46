package el

import (
	stdctx "context"
	"sync"
)

// fact is one derived assertion: either a subsumption C ∈ S(A) or a role
// link (A, role, B) ∈ R(role).
type fact struct {
	kind byte // 'S' = subsumer, 'E' = edge
	a    atom // the context (subject)
	b    atom // the subsumer / edge target
	role int32
}

// workQueue is an unbounded multi-producer multi-consumer queue with
// quiescence detection: it reports completion when every pushed fact has
// been fully processed (including the facts that processing produced).
// abort wakes all poppers early without waiting for quiescence.
type workQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []fact
	pending int // pushed but not yet fully processed
	done    bool
	aborted bool
}

func newWorkQueue() *workQueue {
	q := &workQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a fact; its processing must later be acknowledged with ack.
func (q *workQueue) push(f fact) {
	q.mu.Lock()
	q.items = append(q.items, f)
	q.pending++
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until a fact is available or the queue quiesces or aborts;
// ok is false on quiescence or abort.
func (q *workQueue) pop() (fact, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.done {
		q.cond.Wait()
	}
	if q.aborted || len(q.items) == 0 {
		return fact{}, false
	}
	f := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	return f, true
}

// ack marks one popped fact as fully processed.
func (q *workQueue) ack() {
	q.mu.Lock()
	q.pending--
	if q.pending == 0 {
		q.done = true
		q.mu.Unlock()
		q.cond.Broadcast()
		return
	}
	q.mu.Unlock()
}

// abort makes every current and future pop return immediately with
// ok=false, abandoning queued facts. The saturation that owns the queue
// must then be discarded: its state is partial.
func (q *workQueue) abort() {
	q.mu.Lock()
	q.done = true
	q.aborted = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// atomCtx is the per-atom saturation state (a "context" in ELK
// terminology; named atomCtx to leave the identifier context to the
// standard library). Its mutex guards all fields; locks on different
// atoms are never held simultaneously.
type atomCtx struct {
	mu    sync.Mutex
	subs  map[atom]bool           // S(A)
	preds map[int32]map[atom]bool // role → predecessors P with (P,role,A)
	succs map[int32]map[atom]bool // role → successors B with (A,role,B)
}

// claimSub atomically inserts c into S(A); reports whether it was new.
func (c *atomCtx) claimSub(x atom) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.subs[x] {
		return false
	}
	if c.subs == nil {
		c.subs = make(map[atom]bool)
	}
	c.subs[x] = true
	return true
}

// claimPred atomically inserts (p, role) into preds; reports whether new.
func (c *atomCtx) claimPred(role int32, p atom) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.preds == nil {
		c.preds = make(map[int32]map[atom]bool)
	}
	m := c.preds[role]
	if m == nil {
		m = make(map[atom]bool)
		c.preds[role] = m
	}
	if m[p] {
		return false
	}
	m[p] = true
	return true
}

// addSucc records (A, role, b) on the source side.
func (c *atomCtx) addSucc(role int32, b atom) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.succs == nil {
		c.succs = make(map[int32]map[atom]bool)
	}
	m := c.succs[role]
	if m == nil {
		m = make(map[atom]bool)
		c.succs[role] = m
	}
	m[b] = true
}

func (c *atomCtx) snapshotSubs() []atom {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]atom, 0, len(c.subs))
	for s := range c.subs {
		out = append(out, s)
	}
	return out
}

// forEachSub calls fn for every member of S(A) under A's lock, so fn
// must not call back into the saturation.
func (c *atomCtx) forEachSub(fn func(atom)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s := range c.subs {
		fn(s)
	}
}

func (c *atomCtx) hasSub(x atom) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subs[x]
}

func (c *atomCtx) snapshotPreds(role int32) []atom {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.preds[role]
	out := make([]atom, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	return out
}

func (c *atomCtx) snapshotAllPreds() []roleAtom {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []roleAtom
	for role, m := range c.preds {
		for p := range m {
			out = append(out, roleAtom{role: role, a: p})
		}
	}
	return out
}

func (c *atomCtx) snapshotSuccs(role int32) []atom {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.succs[role]
	out := make([]atom, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	return out
}

// saturation runs the completion rules to fixpoint.
type saturation struct {
	n    *normalized
	ctxs []atomCtx
	q    *workQueue
}

func newSaturation(n *normalized) *saturation {
	return &saturation{n: n, ctxs: make([]atomCtx, n.numAtoms), q: newWorkQueue()}
}

// run seeds the initial facts and saturates with the given worker count.
// When ctx is cancelled before the fixpoint is reached the queue is
// aborted, the workers drain, and run returns ctx's error; the partial
// saturation must not be queried.
func (s *saturation) run(ctx stdctx.Context, workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers < 1 {
		workers = 1
	}
	// Init: S(A) ⊇ {A, ⊤} for every atom.
	for a := 0; a < s.n.numAtoms; a++ {
		s.deriveSub(atom(a), atom(a))
		s.deriveSub(atom(a), atomTop)
	}
	// Watch for cancellation only when it is possible: Background/TODO
	// contexts have a nil Done channel and skip the watcher entirely.
	var watchWg sync.WaitGroup
	stop := make(chan struct{})
	if done := ctx.Done(); done != nil {
		watchWg.Add(1)
		go func() {
			defer watchWg.Done()
			select {
			case <-done:
				s.q.abort()
			case <-stop:
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				f, ok := s.q.pop()
				if !ok {
					return
				}
				s.process(f)
				s.q.ack()
			}
		}()
	}
	wg.Wait()
	close(stop)
	watchWg.Wait()
	return ctx.Err()
}

// deriveSub claims C ∈ S(A) and enqueues it for rule application.
func (s *saturation) deriveSub(a, c atom) {
	if s.ctxs[a].claimSub(c) {
		s.q.push(fact{kind: 'S', a: a, b: c})
	}
}

// deriveEdge claims (A, role, B) and enqueues it.
func (s *saturation) deriveEdge(a atom, role int32, b atom) {
	if s.ctxs[b].claimPred(role, a) {
		s.ctxs[a].addSucc(role, b)
		s.q.push(fact{kind: 'E', a: a, b: b, role: role})
	}
}

func (s *saturation) process(f fact) {
	if f.kind == 'S' {
		s.processSub(f.a, f.b)
	} else {
		s.processEdge(f.a, f.role, f.b)
	}
}

// processSub applies all rules triggered by a new subsumer C ∈ S(A).
func (s *saturation) processSub(a, c atom) {
	n := s.n
	// CR1: C ⊑ D.
	for _, d := range n.subs[c] {
		s.deriveSub(a, d)
	}
	// CR2: C ⊓ B ⊑ D with B already in S(A).
	for _, e := range n.conjByLeft[c] {
		if e.other == c || s.ctxs[a].hasSub(e.other) {
			s.deriveSub(a, e.rhs)
		}
	}
	// CR3: C ⊑ ∃r.D.
	for _, ra := range n.exRHS[c] {
		s.deriveEdge(a, ra.role, ra.a)
	}
	// CR4 (right half): ∃r.C ⊑ D and some predecessor P of A via r.
	for _, ra := range n.exLHSFiller[c] {
		for _, p := range s.ctxs[a].snapshotPreds(ra.role) {
			s.deriveSub(p, ra.a)
		}
	}
	// CR5: ⊥ propagates to every predecessor.
	if c == atomBottom {
		for _, rp := range s.ctxs[a].snapshotAllPreds() {
			s.deriveSub(rp.a, atomBottom)
		}
	}
}

// processEdge applies all rules triggered by a new link (A, role, B).
func (s *saturation) processEdge(a atom, role int32, b atom) {
	n := s.n
	// Role hierarchy: materialize the link under every direct super-role.
	for _, sup := range n.supers[role] {
		s.deriveEdge(a, sup, b)
	}
	// CR4 (left half): C ∈ S(B) with ∃role.C ⊑ D.
	if idx := n.exLHS[role]; idx != nil {
		for _, c := range s.ctxs[b].snapshotSubs() {
			for _, d := range idx[c] {
				s.deriveSub(a, d)
			}
		}
	}
	// CR5: ⊥ ∈ S(B).
	if s.ctxs[b].hasSub(atomBottom) {
		s.deriveSub(a, atomBottom)
	}
	// CR11: transitivity, joining on both sides of the new link.
	if n.transitive[role] {
		for _, c := range s.ctxs[b].snapshotSuccs(role) {
			s.deriveEdge(a, role, c)
		}
		for _, p := range s.ctxs[a].snapshotPreds(role) {
			s.deriveEdge(p, role, b)
		}
	}
}
