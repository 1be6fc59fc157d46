package reasoner

import (
	"context"
	"testing"

	"parowl/internal/bitset"
	"parowl/internal/dl"
)

// fakeFilter is a plug-in with both filter capabilities.
type fakeFilter struct{}

func (f *fakeFilter) Sat(context.Context, *dl.Concept) (bool, error) { return true, nil }

func (f *fakeFilter) Subs(context.Context, *dl.Concept, *dl.Concept) (bool, error) {
	return false, nil
}

func (f *fakeFilter) DisprovesSubs(context.Context, *dl.Concept, *dl.Concept) bool { return true }

func (f *fakeFilter) FilterRows(context.Context, []*dl.Concept) func(int, *bitset.Set) {
	return func(int, *bitset.Set) {}
}

// TestAsModelFilter checks both filter probes: a plain plug-in offers
// neither capability, and the pass-through decorators (Counting, Cached)
// hand the wrapped plug-in's capabilities on through Unwrap.
func TestAsModelFilter(t *testing.T) {
	if AsModelFilter(&countedFake{}) != nil || AsRowFilter(&countedFake{}) != nil {
		t.Error("plain plug-in should expose no filter")
	}
	fk := &fakeFilter{}
	for name, r := range map[string]Interface{
		"bare":     fk,
		"counting": Counting{R: fk, S: &Stats{}},
		"cached":   NewCached(fk),
	} {
		if AsModelFilter(r) != ModelFilter(fk) {
			t.Errorf("%s: ModelFilter not found on the wrapped plug-in", name)
		}
		if AsRowFilter(r) != RowFilter(fk) {
			t.Errorf("%s: RowFilter not found on the wrapped plug-in", name)
		}
	}
}
