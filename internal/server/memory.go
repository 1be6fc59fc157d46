package server

import (
	"fmt"
	"time"

	"parowl"
)

// Memory accounting and eviction: every warm generation is charged its
// Snapshot.MemoryFootprint() (taxonomy DAG + the kernel's ancestor
// closure — the kernel dominates at n² bits), and when
// Config.MaxResidentBytes is set the registry evicts least-recently-queried
// classified entries down to the budget. Eviction only drops the in-memory handle: the
// entry still lists as `classified`, its checkpoint and source stay on
// disk, and the next query transparently re-adopts the checkpoint (the
// first query after eviction pays the reload; answers are byte-identical
// because adoption rebuilds the same taxonomy and kernel). In-flight
// queries keep their Snapshot alive through the garbage collector, so
// eviction can never invalidate an answer mid-request.

// residentBytes sums the charged footprint of every warm entry.
func (s *Server) residentBytes() int64 {
	var total int64
	for _, e := range s.reg.all() {
		e.mu.Lock()
		if e.serving != nil {
			total += e.resident
		}
		e.mu.Unlock()
	}
	return total
}

// maybeEvict brings resident bytes back under the configured budget by
// evicting cold classified entries, least recently used first. The most
// recently used entry is never evicted — with a budget smaller than a
// single kernel the daemon would otherwise thrash itself to zero warm
// state; keeping exactly the working set of one is the useful floor
// (logged, since the operator's budget is then unsatisfiable).
func (s *Server) maybeEvict() {
	if s.cfg.MaxResidentBytes <= 0 || s.cfg.CheckpointDir == "" {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	for {
		var (
			total    int64
			resident int
			victim   *entry
			victimAt time.Time
			newest   time.Time
		)
		for _, e := range s.reg.all() {
			e.mu.Lock()
			if e.serving != nil {
				total += e.resident
				resident++
				if e.status == StatusClassified && e.srcPath != "" && e.checkpoint != "" {
					if victim == nil || e.lastUsed.Before(victimAt) {
						victim, victimAt = e, e.lastUsed
					}
					if e.lastUsed.After(newest) {
						newest = e.lastUsed
					}
				}
			}
			e.mu.Unlock()
		}
		if total <= s.cfg.MaxResidentBytes {
			return
		}
		if victim == nil || (resident == 1 && victim != nil) || victimAt.Equal(newest) {
			if victim != nil {
				s.cfg.Logf("owld: evict: resident %d bytes over budget %d but only the working set remains; keeping %s warm",
					total, s.cfg.MaxResidentBytes, victim.id)
			}
			return
		}
		victim.mu.Lock()
		// Re-check under the lock: a racing reload or reclassification may
		// have touched the entry since the scan.
		if victim.serving == nil || victim.status != StatusClassified {
			victim.mu.Unlock()
			continue
		}
		freed := victim.resident
		victim.serving = nil
		victim.resident = 0
		victim.mu.Unlock()
		s.evictions.Add(1)
		s.cfg.Logf("owld: evict %s: released %d bytes (resident %d > budget %d); checkpoint stays on disk, next query reloads",
			victim.id, freed, total, s.cfg.MaxResidentBytes)
	}
}

// residentSnapshot returns a query-ready Snapshot for the entry and the
// generation it serves, paying a demand reload when the entry was
// evicted. It also touches the LRU clock. The generation is read in the
// same critical section that picks the serving state, since a finished
// classification replaces both at once: read separately, a reply could
// carry the next generation's number with the previous one's answers.
func (s *Server) residentSnapshot(e *entry) (*parowl.Snapshot, uint64, error) {
	e.mu.Lock()
	ont, gen := e.serving, e.generation
	reloadable := ont == nil && e.status == StatusClassified && e.srcPath != "" && e.checkpoint != ""
	e.lastUsed = time.Now()
	e.mu.Unlock()
	if ont != nil {
		snap, err := ont.Snapshot()
		return snap, gen, err
	}
	if !reloadable {
		return nil, 0, parowl.ErrNotClassified
	}
	return s.reload(e)
}

// reload re-adopts an evicted entry's checkpoint. Concurrent queries for
// the same entry single-flight behind reloadMu — one decode, everyone
// served. A reload failure (checkpoint rotted since eviction) degrades
// the entry to interrupted, exactly like a failed boot-time re-adoption.
func (s *Server) reload(e *entry) (*parowl.Snapshot, uint64, error) {
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()

	e.mu.Lock()
	ont, gen := e.serving, e.generation
	srcPath, ckPath, name, format, fp := e.srcPath, e.checkpoint, e.name, e.format, e.fingerprint
	still := e.status == StatusClassified
	e.mu.Unlock()
	if ont != nil {
		snap, err := ont.Snapshot() // another waiter already reloaded
		return snap, gen, err
	}
	if !still {
		return nil, 0, parowl.ErrNotClassified
	}

	start := time.Now()
	ont, _, snap, err := s.adoptFromDisk(srcPath, ckPath, name, format, fp)
	if err != nil {
		e.mu.Lock()
		if e.status == StatusClassified && e.serving == nil {
			e.status = StatusInterrupted
			e.errMsg = fmt.Sprintf("demand reload failed: %v; resubmit to reclassify", err)
		}
		e.mu.Unlock()
		s.persist()
		s.cfg.Logf("owld: reload %s: %v (degraded to interrupted)", e.id, err)
		return nil, 0, parowl.ErrNotClassified
	}

	e.mu.Lock()
	if e.status == StatusClassified && e.serving == nil {
		e.serving = ont
		e.resident = snap.MemoryFootprint()
		e.lastUsed = time.Now()
		e.reloads++
	}
	e.mu.Unlock()
	s.reloads.Add(1)
	s.cfg.Logf("owld: reload %s: re-adopted evicted state in %v", e.id, time.Since(start).Round(time.Millisecond))
	s.maybeEvict()
	return snap, gen, nil
}
