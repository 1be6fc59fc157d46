package reasoner

import (
	"context"
	"errors"
	"sort"
	"sync"

	"parowl/internal/dl"
)

// cacheShards is the number of independent lock domains in Cached. A
// power of two so the shard index is a mask; 64 shards keep the
// probability of two of ~100 workers colliding on a lock low without
// bloating the structure.
const cacheShards = 64

// Cached memoizes the answers of an underlying plug-in so repeated tests
// of the same pair cost one map lookup. The classifier already avoids
// duplicate tests through its tested() structure, but plug-in users (the
// sequential baselines, examples) benefit, and the paper's Situation 2.1
// (skip already-tested pairs) maps here for re-entrant runs.
//
// The table is sharded: keys (built from the dense concept IDs assigned
// by the interning Factory) hash to one of cacheShards independent
// mutex-protected maps, so workers testing different pairs almost never
// contend on the same lock. Each shard also performs single-flight
// suppression: when N workers miss on the same key concurrently, one
// runs the underlying test and the other N-1 wait for its answer instead
// of redundantly re-running a potentially expensive tableau test (the
// thundering-herd fix).
//
// Single flight is deadline-aware: a waiter whose own context expires
// stops waiting and returns its context error, and when the running
// flight fails with the runner's context error (its per-test budget
// expired), waiters with live contexts retry the call under their own
// budget instead of inheriting the runner's timeout.
//
// Cached is safe for concurrent use. Errors are not cached: every waiter
// of a failed flight receives the error, and the next caller retries.
type Cached struct {
	r    Interface
	sat  [cacheShards]cacheShard
	subs [cacheShards]cacheShard
}

// cacheShard is one lock domain: settled answers plus in-flight calls.
type cacheShard struct {
	mu       sync.Mutex
	vals     map[uint64]bool
	inflight map[uint64]*flight
}

// flight is one in-progress underlying call; waiters block on done.
type flight struct {
	done chan struct{}
	val  bool
	err  error
}

// NewCached wraps r with a memo table. Capabilities such as RowFilter
// are not forwarded by Cached itself; AsRowFilter finds them on r
// through Unwrap.
func NewCached(r Interface) *Cached {
	return &Cached{r: r}
}

// shardOf hashes a key to its shard with a 64-bit mix (splitmix64
// finalizer) so that the dense, correlated concept IDs spread evenly.
func shardOf(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return key & (cacheShards - 1)
}

// satKey and subsKey build cache keys from the dense per-factory concept
// IDs. A Cached instance serves a single TBox/Factory, so IDs identify
// concepts uniquely.
func satKey(c *dl.Concept) uint64         { return uint64(uint32(c.ID)) }
func subsKey(sup, sub *dl.Concept) uint64 { return uint64(uint32(sup.ID))<<32 | uint64(uint32(sub.ID)) }

// isCtxErr reports whether err carries a context cancellation/deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// do returns the cached answer for key, joining an in-flight call when
// one exists, and otherwise runs fn exactly once for all concurrent
// callers of this key. fn receives the caller's context.
func (s *cacheShard) do(ctx context.Context, key uint64, fn func(context.Context) (bool, error)) (bool, error) {
	for {
		s.mu.Lock()
		if v, ok := s.vals[key]; ok {
			s.mu.Unlock()
			return v, nil
		}
		if f, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return false, ctx.Err()
			}
			if f.err == nil {
				return f.val, nil
			}
			if isCtxErr(f.err) && ctx.Err() == nil {
				// The runner's budget expired, not ours: retry under our
				// own context (becoming the new runner if still unsettled).
				continue
			}
			return false, f.err
		}
		f := &flight{done: make(chan struct{})}
		if s.inflight == nil {
			s.inflight = make(map[uint64]*flight)
		}
		s.inflight[key] = f
		s.mu.Unlock()

		f.val, f.err = fn(ctx)

		s.mu.Lock()
		delete(s.inflight, key)
		if f.err == nil {
			if s.vals == nil {
				s.vals = make(map[uint64]bool)
			}
			s.vals[key] = f.val
		}
		s.mu.Unlock()
		close(f.done)
		return f.val, f.err
	}
}

// put settles key to val unless already settled.
func (s *cacheShard) put(key uint64, val bool) {
	s.mu.Lock()
	if _, ok := s.vals[key]; !ok {
		if s.vals == nil {
			s.vals = make(map[uint64]bool)
		}
		s.vals[key] = val
	}
	s.mu.Unlock()
}

// Sat implements Interface.
func (c *Cached) Sat(ctx context.Context, x *dl.Concept) (bool, error) {
	key := satKey(x)
	return c.sat[shardOf(key)].do(ctx, key, func(ctx context.Context) (bool, error) {
		return c.r.Sat(ctx, x)
	})
}

// Subs implements Interface.
func (c *Cached) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	key := subsKey(sup, sub)
	return c.subs[shardOf(key)].do(ctx, key, func(ctx context.Context) (bool, error) {
		return c.r.Subs(ctx, sup, sub)
	})
}

// Unwrap implements Wrapper so capability probes reach the wrapped
// plug-in.
func (c *Cached) Unwrap() Interface { return c.r }

// CacheEntry is one settled answer in a portable cache snapshot. Keys are
// the same dense-concept-ID compounds Cached uses internally, so a
// snapshot is only meaningful for the same TBox (IDs are assigned in
// first-use order and are stable across re-parses of the same ontology).
type CacheEntry struct {
	Key uint64
	Val bool
}

// CacheSnapshot is a portable dump of a plug-in's settled answers.
type CacheSnapshot struct {
	Sat  []CacheEntry
	Subs []CacheEntry
}

// CachePorter is an optional capability: exporting and importing settled
// answers. Classification checkpoints do not carry them: a snapshot is
// cut at quiescence, where P and K already hold every answer a memo
// could supply. Implementations must be safe for concurrent use.
type CachePorter interface {
	ExportCache() CacheSnapshot
	ImportCache(CacheSnapshot)
}

// exportShards collects the settled entries of a shard group, sorted by
// key so exports are deterministic.
func exportShards(shards *[cacheShards]cacheShard) []CacheEntry {
	var out []CacheEntry
	for i := range shards {
		s := &shards[i]
		s.mu.Lock()
		for k, v := range s.vals {
			out = append(out, CacheEntry{Key: k, Val: v})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// importShards settles every entry that is not already settled.
func importShards(shards *[cacheShards]cacheShard, entries []CacheEntry) {
	for _, e := range entries {
		shards[shardOf(e.Key)].put(e.Key, e.Val)
	}
}

// ExportCache implements CachePorter. Each shard is read under its own
// lock; entries settled while the export runs may or may not appear (the
// snapshot is a subset of truth).
func (c *Cached) ExportCache() CacheSnapshot {
	return CacheSnapshot{
		Sat:  exportShards(&c.sat),
		Subs: exportShards(&c.subs),
	}
}

// ImportCache implements CachePorter, pre-settling the answers of a
// previously exported snapshot. Entries already settled locally win.
func (c *Cached) ImportCache(snap CacheSnapshot) {
	importShards(&c.sat, snap.Sat)
	importShards(&c.subs, snap.Subs)
}
