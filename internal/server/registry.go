// Package server implements owld, the classification-as-a-service
// daemon: an ontology registry, an admission-controlled classify job
// queue, and a query surface served from warm per-ontology state — all
// on top of the public parowl Engine/Ontology/Snapshot handles, so the
// daemon exercises exactly the API library users get.
package server

import (
	"context"
	"sync"
	"time"

	"parowl"
)

// Status is the lifecycle state of one registered ontology.
type Status string

// Registry entry states. An entry that has classified at least once
// keeps serving its last good taxonomy through every later state — a
// reclassification in flight (queued/classifying) or failed does not
// take the query surface down.
const (
	StatusQueued      Status = "queued"      // admitted, waiting for a classify slot (or a retry backoff)
	StatusClassifying Status = "classifying" // a classify job is running
	StatusClassified  Status = "classified"  // taxonomy ready; queries served
	StatusFailed      Status = "failed"      // last classify attempt errored
	StatusInterrupted Status = "interrupted" // drained mid-classify; resumable from checkpoint
	StatusAdopting    Status = "adopting"    // restart re-adoption from the manifest in progress
)

// entry is one registered ontology: its lifecycle state plus the warm
// serving handle. The serving handle is replaced only after a successful
// (re)classification, so concurrent queries always see a complete
// generation — the swap discipline the public Ontology/Snapshot handles
// provide, lifted to whole resubmissions (which may carry new content
// and therefore a new handle).
type entry struct {
	id string

	// reloadMu serializes demand reloads of an evicted entry so a
	// thundering herd of queries pays the checkpoint decode once. It is
	// taken before mu and never while holding mu.
	reloadMu sync.Mutex

	mu         sync.Mutex
	name       string
	status     Status
	errMsg     string
	serving    *parowl.Ontology   // last good handle; nil until first success or while evicted
	cancel     context.CancelFunc // cancels the in-flight classify job
	checkpoint string             // checkpoint path of the last job, if any
	scheduling string             // scheduling policy of the last started job
	resumed    bool               // last run restored from a checkpoint
	// generation changes with serving, under mu. It survives restarts
	// (restored from the manifest) and evict/reload cycles, which is why
	// the X-Parowl-Generation header is served from it rather than from
	// the per-handle Snapshot generation.
	generation uint64
	concepts   int
	classes    int
	undecided  int
	stats      parowl.Stats
	submitted  time.Time
	started    time.Time
	finished   time.Time
	elapsed    time.Duration

	// Durable-registry state (persistent manifest, PR 9).
	format      parowl.Format // source syntax, for restart re-parse
	fingerprint uint64        // source fingerprint, pairs manifest with checkpoint
	srcPath     string        // persisted source document under the checkpoint dir
	readopted   bool          // serving state re-adopted at boot, zero reclassification

	// Retry-with-backoff state.
	attempts  int       // failed attempts of the current submission
	nextRetry time.Time // when the next attempt is scheduled (zero when none)

	// Memory-accounting state.
	resident int64     // bytes charged while the serving handle is warm
	lastUsed time.Time // last query touch, drives LRU eviction
	reloads  int64     // demand reloads this entry has paid after eviction
}

// StatusInfo is the JSON shape of one entry, returned by the status and
// list endpoints.
type StatusInfo struct {
	ID         string        `json:"id"`
	Name       string        `json:"name"`
	Status     Status        `json:"status"`
	Error      string        `json:"error,omitempty"`
	Concepts   int           `json:"concepts"`
	Classes    int           `json:"classes,omitempty"`
	Undecided  int           `json:"undecided,omitempty"`
	Generation uint64        `json:"generation"`
	Scheduling string        `json:"scheduling,omitempty"`
	Resumed    bool          `json:"resumed,omitempty"`
	Checkpoint string        `json:"checkpoint,omitempty"`
	Stats      *parowl.Stats `json:"stats,omitempty"`
	// Readopted reports the serving state was restored from the manifest
	// and checkpoint at daemon startup without any reclassification.
	Readopted bool `json:"readopted,omitempty"`
	// Attempts counts failed classify attempts of the current submission;
	// NextRetryAt is when the next backoff retry fires (zero when none is
	// scheduled).
	Attempts    int        `json:"attempts,omitempty"`
	NextRetryAt *time.Time `json:"next_retry_at,omitempty"`
	// Resident reports whether the classified state is warm in memory;
	// false for a classified entry means it was evicted under the
	// -max-resident-bytes budget and the next query pays a demand reload.
	Resident      bool      `json:"resident"`
	ResidentBytes int64     `json:"resident_bytes,omitempty"`
	Reloads       int64     `json:"reloads,omitempty"`
	SubmittedAt   time.Time `json:"submitted_at,omitempty"`
	StartedAt     time.Time `json:"started_at,omitempty"`
	FinishedAt    time.Time `json:"finished_at,omitempty"`
	ElapsedMS     int64     `json:"elapsed_ms,omitempty"`
}

func (e *entry) info() StatusInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	info := StatusInfo{
		ID:            e.id,
		Name:          e.name,
		Status:        e.status,
		Error:         e.errMsg,
		Concepts:      e.concepts,
		Classes:       e.classes,
		Undecided:     e.undecided,
		Generation:    e.generation,
		Scheduling:    e.scheduling,
		Resumed:       e.resumed,
		Checkpoint:    e.checkpoint,
		Readopted:     e.readopted,
		Attempts:      e.attempts,
		Resident:      e.serving != nil,
		ResidentBytes: e.resident,
		Reloads:       e.reloads,
		SubmittedAt:   e.submitted,
		StartedAt:     e.started,
		FinishedAt:    e.finished,
		ElapsedMS:     e.elapsed.Milliseconds(),
	}
	if !e.nextRetry.IsZero() {
		next := e.nextRetry
		info.NextRetryAt = &next
	}
	if e.generation > 0 {
		stats := e.stats
		info.Stats = &stats
	}
	return info
}

// inFlightLocked reports whether a classify job for this entry is
// admitted, running, waiting out a retry backoff, or being re-adopted at
// boot (at most one per entry at a time); e.mu must be held.
func (e *entry) inFlightLocked() bool {
	return e.status == StatusQueued || e.status == StatusClassifying || e.status == StatusAdopting
}

// queuedLocked marks the entry admitted; e.mu must be held. The caller
// holds the lock across the queue send so the in-flight check and the
// admission are one atomic step (two racing submits for the same id
// cannot both be admitted).
func (e *entry) queuedLocked(name string) {
	e.name = name
	e.status = StatusQueued
	e.errMsg = ""
	e.submitted = time.Now()
	e.started, e.finished = time.Time{}, time.Time{}
}

func (e *entry) markClassifying(cancel context.CancelFunc, checkpoint, scheduling string) {
	e.mu.Lock()
	e.status = StatusClassifying
	e.cancel = cancel
	e.checkpoint = checkpoint
	e.scheduling = scheduling
	e.nextRetry = time.Time{}
	e.started = time.Now()
	e.mu.Unlock()
}

// markRetryWait parks the entry between failed classify attempts: it
// stays StatusQueued (so duplicate submissions keep getting 409 and a
// later drain can flush it), records the failure and the backoff
// schedule, and keeps serving any previous good generation.
func (e *entry) markRetryWait(err error, attempts int, next time.Time) {
	e.mu.Lock()
	e.status = StatusQueued
	e.errMsg = err.Error()
	e.attempts = attempts
	e.nextRetry = next
	e.cancel = nil
	e.finished = time.Now()
	if !e.started.IsZero() {
		e.elapsed = e.finished.Sub(e.started)
	}
	e.mu.Unlock()
}

// markDone records a finished classify job. On success the serving
// handle is swapped to the job's ontology; on failure the previous
// serving state (if any) stays live. footprint is the new generation's
// resident cost in bytes (success only).
func (e *entry) markDone(ont *parowl.Ontology, res *parowl.Result, footprint int64, err error, interrupted bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cancel = nil
	e.nextRetry = time.Time{}
	e.finished = time.Now()
	if !e.started.IsZero() {
		e.elapsed = e.finished.Sub(e.started)
	}
	if err != nil {
		e.errMsg = err.Error()
		if interrupted {
			e.status = StatusInterrupted
		} else {
			e.status = StatusFailed
		}
		return
	}
	e.status = StatusClassified
	e.errMsg = ""
	e.serving = ont
	e.resumed = res.Resumed
	e.readopted = false
	e.attempts = 0
	e.generation++
	e.concepts = ont.TBox().NumNamed()
	e.classes = res.Taxonomy.NumClasses()
	e.undecided = len(res.Undecided)
	e.stats = res.Stats
	e.resident = footprint
	e.lastUsed = time.Now()
}

// markAdopted installs a serving state re-adopted from the manifest and
// checkpoint at boot: the generation is RESTORED (not incremented) so
// clients observe a continuous generation sequence across restarts, and
// readopted proves no reclassification ran.
func (e *entry) markAdopted(ont *parowl.Ontology, res *parowl.Result, generation uint64, footprint int64, elapsed time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.status = StatusClassified
	e.errMsg = ""
	e.serving = ont
	e.resumed = true
	e.readopted = true
	e.generation = generation
	e.concepts = ont.TBox().NumNamed()
	e.classes = res.Taxonomy.NumClasses()
	e.undecided = len(res.Undecided)
	e.stats = res.Stats
	e.resident = footprint
	e.lastUsed = time.Now()
	e.finished = time.Now()
	e.elapsed = elapsed
}

// abort cancels the entry's in-flight classify job, if any.
func (e *entry) abort() {
	e.mu.Lock()
	cancel := e.cancel
	e.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// registry is the id → entry table.
type registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	order   []string // insertion order for stable listings
}

func newRegistry() *registry {
	return &registry{entries: make(map[string]*entry)}
}

// getOrCreate returns the entry for id, creating it on first submission.
func (r *registry) getOrCreate(id string) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		return e
	}
	e := &entry{id: id}
	r.entries[id] = e
	r.order = append(r.order, id)
	return e
}

// get returns the entry for id, or nil.
func (r *registry) get(id string) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[id]
}

// list returns every entry's StatusInfo in submission order.
func (r *registry) list() []StatusInfo {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	r.mu.Unlock()
	out := make([]StatusInfo, 0, len(ids))
	for _, id := range ids {
		if e := r.get(id); e != nil {
			out = append(out, e.info())
		}
	}
	return out
}

// removeIfEmpty drops an entry that never got past admission (a 429'd
// first submission), so load-shed requests leave no ghost entries in
// listings.
func (r *registry) removeIfEmpty(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return
	}
	e.mu.Lock()
	empty := e.status == "" && e.serving == nil
	e.mu.Unlock()
	if !empty {
		return
	}
	delete(r.entries, id)
	for i, x := range r.order {
		if x == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// remove unconditionally drops an entry from the table (DELETE surface).
// The caller is responsible for the entry's on-disk artifacts.
func (r *registry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return
	}
	delete(r.entries, id)
	for i, x := range r.order {
		if x == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// all returns every live entry (for eviction scans and manifest writes).
func (r *registry) all() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*entry, 0, len(r.order))
	for _, id := range r.order {
		if e, ok := r.entries[id]; ok {
			out = append(out, e)
		}
	}
	return out
}

// abortAll cancels every in-flight classify job (drain path).
func (r *registry) abortAll() {
	r.mu.Lock()
	es := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	r.mu.Unlock()
	for _, e := range es {
		e.abort()
	}
}
