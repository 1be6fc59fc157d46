package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one recorded layer span. Parent is the ID of the span that
// caused it (0 for a root); Req groups the spans of one request.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps layer spans in memory until the benchmark ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []spanRec
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{origin: time.Now(), counts: map[string]int64{}} }

// begin opens a span and returns its ID, for children to name as their
// parent, and a function that closes it. It also counts the span.
func (t *tracer) begin(name string, parent, req int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.ids.Add(1)
	start := int64(time.Since(t.origin))
	return id, func() {
		rec := spanRec{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: int64(time.Since(t.origin))}
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans = append(t.spans, rec)
		t.counts[name]++
	}
}

// count adds n to a boundary counter.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// write saves the spans and counters as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"spans": t.spans, "counts": t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
