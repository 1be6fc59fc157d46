package reasoner

import (
	"context"
	"sync/atomic"
	"testing"

	"parowl/internal/dl"
)

// fakeFilter is a plug-in with the ModelFilter capability: Subs answers
// subsAnswer, DisprovesSubs answers disprove and counts probes.
type fakeFilter struct {
	subsAnswer bool
	disprove   bool
	subsCalls  atomic.Int64
	probes     atomic.Int64
}

func (f *fakeFilter) Sat(context.Context, *dl.Concept) (bool, error) { return true, nil }

func (f *fakeFilter) Subs(context.Context, *dl.Concept, *dl.Concept) (bool, error) {
	f.subsCalls.Add(1)
	return f.subsAnswer, nil
}

func (f *fakeFilter) DisprovesSubs(context.Context, *dl.Concept, *dl.Concept) bool {
	f.probes.Add(1)
	return f.disprove
}

func TestAsModelFilter(t *testing.T) {
	if AsModelFilter(&countedFake{}) != nil {
		t.Error("plain plug-in should not expose ModelFilter")
	}
	if AsModelFilter(&fakeFilter{}) == nil {
		t.Error("fakeFilter should expose ModelFilter")
	}
}

func TestCountingForwardsFilter(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	ctx := context.Background()
	a, b := f.Name("A"), f.Name("B")

	var stats Stats
	plain := Counting{R: &countedFake{}, S: &stats}
	if plain.DisprovesSubs(ctx, a, b) {
		t.Error("Counting around a filterless plug-in disproved something")
	}

	fk := &fakeFilter{disprove: true}
	c := Counting{R: fk, S: &stats}
	if !c.DisprovesSubs(ctx, a, b) {
		t.Fatal("Counting dropped the wrapped filter's disproof")
	}
	if stats.FilterHits.Load() != 1 {
		t.Errorf("FilterHits = %d, want 1", stats.FilterHits.Load())
	}
	fk.disprove = false
	if c.DisprovesSubs(ctx, a, b) {
		t.Error("Counting invented a disproof")
	}
	if stats.FilterHits.Load() != 1 {
		t.Errorf("FilterHits = %d after a miss, want 1", stats.FilterHits.Load())
	}
}

// TestCachedFilterMemo checks the filter/memo contract of Cached: a fresh
// disproof is remembered as a settled negative (so the later Subs never
// reaches the plug-in or the single-flight machinery), a settled positive
// short-circuits the filter to "don't know", and a settled negative is a
// free disproof without probing the filter again.
func TestCachedFilterMemo(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	ctx := context.Background()
	a, b, c, d := f.Name("A"), f.Name("B"), f.Name("C"), f.Name("D")

	fk := &fakeFilter{subsAnswer: true, disprove: true}
	cache := NewCached(fk)

	// Fresh disproof → settled negative, Subs answered from the memo.
	if !cache.DisprovesSubs(ctx, a, b) {
		t.Fatal("filter disproof lost")
	}
	if got, err := cache.Subs(context.Background(), a, b); err != nil || got {
		t.Fatalf("Subsumes after disproof = %v, %v; want false", got, err)
	}
	if fk.subsCalls.Load() != 0 {
		t.Errorf("underlying Subs calls = %d, want 0 (memo hit)", fk.subsCalls.Load())
	}
	// Second probe of the same key is a memo hit, not a new filter probe.
	if !cache.DisprovesSubs(ctx, a, b) {
		t.Fatal("settled negative should disprove for free")
	}
	if fk.probes.Load() != 1 {
		t.Errorf("filter probes = %d, want 1", fk.probes.Load())
	}

	// Settled positive (plug-in answered true) blocks later disproofs
	// regardless of what the filter would say.
	if got, err := cache.Subs(context.Background(), c, d); err != nil || !got {
		t.Fatalf("Subsumes = %v, %v; want true", got, err)
	}
	if cache.DisprovesSubs(ctx, c, d) {
		t.Error("settled positive was disproved")
	}
	if fk.probes.Load() != 1 {
		t.Errorf("filter probed on a settled key: probes = %d, want 1", fk.probes.Load())
	}
}

func TestCachedWithoutFilterCapability(t *testing.T) {
	tb := oracleTBox()
	f := tb.Factory
	cache := NewCached(&countedFake{})
	if AsModelFilter(cache) == nil {
		// Cached always has the method; it must degrade to "don't know".
		t.Fatal("Cached should satisfy ModelFilter")
	}
	if cache.DisprovesSubs(context.Background(), f.Name("A"), f.Name("B")) {
		t.Error("Cached around a filterless plug-in disproved something")
	}
}
