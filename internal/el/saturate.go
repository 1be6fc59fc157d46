package el

import (
	stdctx "context"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// fact is one derived conclusion waiting for its rules: b ∈ S(a) when
// role is subFact, otherwise the link (a, role, b).
type fact struct {
	a, b atom
	role int32
}

const subFact int32 = -1

// saturation runs the completion rules to fixpoint with the data layout
// of ELK's contexts (Kazakov, Krötzsch & Simančík, JAR 2014):
//
//   - S(A) is a dense bit row over atoms. All rows share one slab of
//     numAtoms × words atomic words, so claiming C ∈ S(A) is one CAS on
//     one word and testing it is one load.
//   - Role links are append-only per-role atom lists, kept per context
//     (see links) and only for live roles (see normalized.live). Rules
//     iterate them, and the rows, in place.
//   - A derived fact goes onto the deriving worker's own stack, with no
//     lock taken and no shared counter written; see pool for how workers
//     share work and how the run ends.
//   - A pure atom's row (see normalized.pure) is final before any worker
//     starts, and its context is never seeded or pushed. Deriving a pure
//     atom into another context ORs its row in, a word at a time, in
//     place of the CR1 facts it would push.
//
// Joins. CR2, CR4, CR5 and CR11 join two premises that different workers
// may derive at the same time. Each premise is written before its fact is
// pushed, and the rule for a fact reads the other premise only after that.
// Every such write and read is a sync/atomic operation (row words, list
// lengths, role tables), and Go orders all atomic operations in one
// sequentially consistent order. Take CR4 with ∃r.C ⊑ D: C enters S(B)
// (write W1; its rule then reads preds(B, r): R1) while the link (A, r, B)
// is claimed (write W2, A appended to preds(B, r); its rule then reads
// S(B): R2). If R1 misses W2, R1 comes before W2 in that order, so
// W1 < R1 < W2 < R2 and R2 sees W1: at least one of the two rule
// applications derives D ∈ S(A). The same argument covers C ⊓ C' ⊑ D (two
// bits of S(A)), ⊥ ∈ S(B) against a new link into B (CR5), and two links
// (A, r, B) and (B, r, C) meeting at B (CR11: preds(B) against succs(B)).
// The OR of a pure row needs no such argument: no rule reads a pure
// atom's bit, so only the finished rows do, after the workers have
// stopped.
type saturation struct {
	n     *normalized
	words int             // words per row: ⌈numAtoms/64⌉
	subs  []atomic.Uint64 // S(A) is subs[A*words : (A+1)*words]
	links []links
	pool  pool
}

func newSaturation(n *normalized) *saturation {
	words := (n.numAtoms + 63) / 64
	return &saturation{
		n:     n,
		words: words,
		subs:  make([]atomic.Uint64, n.numAtoms*words),
		links: make([]links, n.numAtoms),
	}
}

// row returns S(a) as its slab words.
func (s *saturation) row(a atom) []atomic.Uint64 {
	return s.subs[int(a)*s.words : (int(a)+1)*s.words]
}

// has reports whether c ∈ S(a).
func (s *saturation) has(a, c atom) bool {
	return s.subs[int(a)*s.words+int(c)>>6].Load()&(1<<(uint(c)&63)) != 0
}

// claimSub adds c to S(a) and reports whether it was new; a bit already
// set costs one load.
func (s *saturation) claimSub(a, c atom) bool {
	bit := uint64(1) << (uint(c) & 63)
	return orWord(&s.subs[int(a)*s.words+int(c)>>6], bit)&bit == 0
}

// run writes the pure rows, seeds the initial facts and saturates with
// the given worker count. When ctx is cancelled before the fixpoint is
// reached the pool is aborted, the workers stop, and run returns ctx's
// error; the partial saturation must not be queried.
func (s *saturation) run(ctx stdctx.Context, workers int) error {
	if err := s.closeTold(ctx); err != nil {
		return err
	}
	ws := make([]worker, max(workers, 1))
	// Init: S(A) ⊇ {A, ⊤} for every impure atom, dealt round-robin.
	for a := 0; a < s.n.numAtoms; a++ {
		if s.n.pure[a] {
			continue
		}
		w := &ws[a%len(ws)]
		s.deriveSub(w, atom(a), atom(a))
		s.deriveSub(w, atom(a), atomTop)
	}
	s.pool.init(len(ws))
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
				s.pool.abort()
			case <-stop:
			}
		}()
	}
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			s.work(w)
		}(&ws[i])
	}
	wg.Wait()
	close(stop)
	watchWg.Wait()
	return ctx.Err()
}

// closeTold writes the final S(A) of every pure atom, one component of
// the told graph at a time in reverse topological order: the component's
// members, ORed with the finished rows of their told subsumers. The
// members share that row, built in the first member's and then copied:
// the others' rows are still empty, so ORing them in adds nothing. ⊤'s
// row, finished with its component, is ORed into every pure row last. It
// polls ctx between components.
func (s *saturation) closeTold(ctx stdctx.Context) error {
	start := int32(0)
	for _, end := range s.n.pureEnds {
		if err := ctx.Err(); err != nil {
			return err
		}
		comp := s.n.pureOrder[start:end]
		start = end
		row := s.row(comp[0])
		for _, m := range comp {
			orWord(&row[m>>6], 1<<(uint(m)&63))
			for _, d := range s.n.subs[m] {
				orRow(row, s.row(d))
			}
		}
		for _, m := range comp[1:] {
			orRow(s.row(m), row)
		}
	}
	top := s.row(atomTop)
	for _, m := range s.n.pureOrder {
		orRow(s.row(m), top)
	}
	return ctx.Err()
}

// orRow ORs src into dst a word at a time.
func orRow(dst, src []atomic.Uint64) {
	for i := range src {
		if v := src[i].Load(); v != 0 {
			orWord(&dst[i], v)
		}
	}
}

// orWord ORs v into *w and returns the previous value. It is a CAS loop,
// not atomic.Uint64.Or, whose value-returning form go1.24.0 miscompiles
// on amd64 (see bitset's orOld); a word that already holds the result
// costs one load.
func orWord(w *atomic.Uint64, v uint64) uint64 {
	for {
		old := w.Load()
		if old|v == old || w.CompareAndSwap(old, old|v) {
			return old
		}
	}
}

// worker is one saturation goroutine's private state: its LIFO stack of
// facts whose rules are still to be applied. Every push and pop writes
// the stack's slice header, so workers are padded to 128 bytes to keep
// their headers on separate cache lines; packed, two workers' headers
// share a line and the 2-worker saturation of WBbt/3 ran slower than the
// 1-worker one.
type worker struct {
	stack []fact
	_     [104]byte
}

// work applies rules until the pool reports the fixpoint or an abort.
func (s *saturation) work(w *worker) {
	p := &s.pool
	for {
		for len(w.stack) > 0 {
			if h := p.hungry.Load(); h > 0 && (len(w.stack) > 1 || h == stopped) && !p.share(w) {
				return
			}
			f := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			if f.role == subFact {
				s.processSub(w, f.a, f.b)
			} else {
				s.processEdge(w, f.a, f.role, f.b)
			}
		}
		if !p.take(w) {
			return
		}
	}
}

// deriveSub claims c ∈ S(a) and, if it is new, pushes it for its rules,
// or ORs in c's finished row when c is pure: that row is the told closure
// CR1 would add, and ⊤'s, which S(a) holds anyway.
func (s *saturation) deriveSub(w *worker, a, c atom) {
	if !s.claimSub(a, c) {
		return
	}
	if s.n.pure[c] {
		orRow(s.row(a), s.row(c))
		return
	}
	w.stack = append(w.stack, fact{a: a, b: c, role: subFact})
}

// deriveEdge claims the link (a, role, b) and, if it is new, pushes it.
// A link of a dead role is dropped: no rule reads it (see
// normalized.live), and this one check covers CR3, super-role
// materialisation and CR11. Successors are recorded only for transitive
// roles, the only rule that follows links forwards.
func (s *saturation) deriveEdge(w *worker, a atom, role int32, b atom) {
	if !s.n.live[role] || !s.links[b].addPred(role, a, s.n.numAtoms) {
		return
	}
	if s.n.transitive[role] {
		s.links[a].addSucc(role, b, s.n.numAtoms)
	}
	w.stack = append(w.stack, fact{a: a, b: b, role: role})
}

// processSub applies all rules triggered by a new subsumer C ∈ S(A).
func (s *saturation) processSub(w *worker, a, c atom) {
	n := s.n
	// CR1: C ⊑ D.
	for _, d := range n.subs[c] {
		s.deriveSub(w, a, d)
	}
	if n.toldOnly[c] {
		return // CR2–CR5 would find nothing to do
	}
	// CR2: C ⊓ B ⊑ D with B already in S(A).
	for _, e := range n.conjByLeft[c] {
		if e.other == c || s.has(a, e.other) {
			s.deriveSub(w, a, e.rhs)
		}
	}
	// CR3: C ⊑ ∃r.D.
	for _, ra := range n.exRHS[c] {
		s.deriveEdge(w, a, ra.role, ra.a)
	}
	// CR4 (right half): ∃r.C ⊑ D and some predecessor P of A via r.
	for _, ra := range n.exLHSFiller[c] {
		for _, p := range s.links[a].preds.get(ra.role) {
			s.deriveSub(w, p, ra.a)
		}
	}
	// CR5: ⊥ propagates to every predecessor.
	if c == atomBottom {
		for _, l := range s.links[a].preds.lists() {
			for _, p := range l.load() {
				s.deriveSub(w, p, atomBottom)
			}
		}
	}
}

// processEdge applies all rules triggered by a new link (A, role, B).
func (s *saturation) processEdge(w *worker, a atom, role int32, b atom) {
	n := s.n
	// Role hierarchy: materialize the link under every direct super-role.
	for _, sup := range n.supers[role] {
		s.deriveEdge(w, a, sup, b)
	}
	// CR4 (left half): C ∈ S(B) with ∃role.C ⊑ D, visiting only the
	// members of S(B) that are fillers of such an axiom.
	if mask := n.exLHSMask[role]; mask != nil {
		idx := n.exLHS[role]
		row := s.row(b)
		for i := range row {
			for x := row[i].Load() & mask[i]; x != 0; x &= x - 1 {
				for _, d := range idx[atom(i*64+bits.TrailingZeros64(x))] {
					s.deriveSub(w, a, d)
				}
			}
		}
	}
	// CR5: ⊥ ∈ S(B).
	if s.has(b, atomBottom) {
		s.deriveSub(w, a, atomBottom)
	}
	// CR11: transitivity, joining on both sides of the new link.
	if n.transitive[role] {
		for _, c := range s.links[b].succs.get(role) {
			s.deriveEdge(w, a, role, c)
		}
		for _, p := range s.links[a].preds.get(role) {
			s.deriveEdge(w, p, role, b)
		}
	}
}

// pool is where workers meet. A busy worker hands the older half of its
// stack over only when the pool holds fewer chunks than there are idle
// workers, which it reads as hungry > 0 with one atomic load per fact; an
// idle worker waits in take. The fixpoint is reached when a worker finds
// the pool empty and every other worker idle: idle workers hold no facts,
// so none is left anywhere. That is decided under mu, the pool's one lock.
// An abort sets hungry to stopped, so a busy worker sees it at its next
// fact.
type pool struct {
	mu      sync.Mutex
	cond    sync.Cond
	chunks  [][]fact
	workers int
	idle    int  // workers waiting in take
	done    bool // fixpoint reached or aborted
	aborted bool
	hungry  atomic.Int32 // idle - len(chunks), or stopped
}

const stopped = math.MaxInt32

func (p *pool) init(workers int) {
	p.workers = workers
	p.cond.L = &p.mu
}

// publish refreshes hungry; the caller holds mu.
func (p *pool) publish() {
	if !p.aborted {
		p.hungry.Store(int32(p.idle - len(p.chunks)))
	}
}

// share moves the older half of w's stack into the pool for an idle
// worker. It reports false once the run is aborted.
func (p *pool) share(w *worker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.aborted {
		return false
	}
	if p.idle <= len(p.chunks) || len(w.stack) < 2 {
		return true
	}
	half := len(w.stack) / 2
	p.chunks = append(p.chunks, append([]fact(nil), w.stack[:half]...))
	w.stack = w.stack[:copy(w.stack, w.stack[half:])]
	p.publish()
	p.cond.Signal()
	return true
}

// take refills w's empty stack from the pool, waiting while other workers
// are busy. It reports false at the fixpoint or on abort.
func (p *pool) take(w *worker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.done {
		if k := len(p.chunks); k > 0 {
			w.stack = append(w.stack, p.chunks[k-1]...)
			p.chunks[k-1] = nil
			p.chunks = p.chunks[:k-1]
			p.publish()
			return true
		}
		if p.idle == p.workers-1 {
			p.done = true
			p.cond.Broadcast()
			break
		}
		p.idle++
		p.publish()
		p.cond.Wait()
		p.idle--
		p.publish()
	}
	return false
}

// abort stops every worker at its next fact or wait, abandoning the
// facts not yet processed. The saturation must then be discarded.
func (p *pool) abort() {
	p.mu.Lock()
	p.done, p.aborted = true, true
	p.hungry.Store(stopped)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// links is one context's role links: preds holds every P with a link
// (P, r, A), and succs every B with (A, r, B) for transitive r. Writers
// hold mu and never another context's; readers take no lock.
type links struct {
	mu    sync.Mutex
	preds roleLists
	succs roleLists
}

// addPred records the link (p, role, A) and reports whether it was new.
func (l *links) addPred(role int32, p atom, numAtoms int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.preds.list(role).add(p, numAtoms)
}

// addSucc records the link (A, role, b) on its source side.
func (l *links) addSucc(role int32, b atom, numAtoms int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.succs.list(role).add(b, numAtoms)
}

// roleLists maps roles to append-only atom lists. Its table of lists is
// copied on write when a role is first added, so readers load it without
// locking.
type roleLists struct {
	table atomic.Pointer[[]*atomList]
}

func (rl *roleLists) lists() []*atomList {
	if t := rl.table.Load(); t != nil {
		return *t
	}
	return nil
}

// get returns the atoms linked through role, as a read-only view.
func (rl *roleLists) get(role int32) []atom {
	for _, l := range rl.lists() {
		if l.role == role {
			return l.load()
		}
	}
	return nil
}

// list returns role's list, adding an empty one if there is none; the
// caller holds the owning links.mu.
func (rl *roleLists) list(role int32) *atomList {
	t := rl.lists()
	for _, l := range t {
		if l.role == role {
			return l
		}
	}
	l := &atomList{role: role}
	grown := append(t[:len(t):len(t)], l)
	rl.table.Store(&grown)
	return l
}

// atomList is an append-only set of atoms with lock-free readers. A
// writer stores the element before the new length, and a grown buffer
// before any length that needs it, so a reader that loads the length
// first and the buffer second always sees a buffer holding that many
// elements. Writers deduplicate by scanning a short list, and through a
// bit row over atoms once it is longer than scanLimit.
type atomList struct {
	role int32
	n    atomic.Int32
	buf  atomic.Pointer[[]atom]
	seen []uint64 // nil while n ≤ scanLimit; guarded by the owner's mutex
}

const scanLimit = 16

func (l *atomList) load() []atom {
	n := l.n.Load()
	if n == 0 {
		return nil
	}
	return (*l.buf.Load())[:n]
}

// add appends x unless it is present, reports whether it was absent, and
// needs the owner's mutex. numAtoms sizes the bit row.
func (l *atomList) add(x atom, numAtoms int) bool {
	n := int(l.n.Load())
	var buf []atom
	if p := l.buf.Load(); p != nil {
		buf = *p
	}
	if l.seen != nil {
		if l.seen[x>>6]&(1<<(uint(x)&63)) != 0 {
			return false
		}
		l.seen[x>>6] |= 1 << (uint(x) & 63)
	} else {
		for _, y := range buf[:n] {
			if y == x {
				return false
			}
		}
		if n == scanLimit {
			l.seen = make([]uint64, (numAtoms+63)/64)
			for _, y := range append(buf[:n:n], x) {
				l.seen[y>>6] |= 1 << (uint(y) & 63)
			}
		}
	}
	if n == len(buf) {
		grown := make([]atom, max(4, 2*n))
		copy(grown, buf)
		l.buf.Store(&grown)
		buf = grown
	}
	buf[n] = x
	l.n.Store(int32(n + 1))
	return true
}
