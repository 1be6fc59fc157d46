package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"parowl/internal/dl"
)

// Adoption is the restart path of a long-lived serving process: a daemon
// that already classified an ontology and checkpointed the completed run
// (its final snapshot, see checkpoint.go) wants the taxonomy and kernel
// back at boot WITHOUT a reasoner and WITHOUT the clean-run fallback that
// ClassifyContext's ResumeFrom performs on a bad snapshot. Reclassifying
// at boot is exactly what a restart-tolerant registry must avoid, so
// Adopt inverts the failure policy: an unusable snapshot is an error the
// caller handles (degrade the entry, reclassify later, on its own
// schedule), never a silent multi-minute reclassification.

// ErrIncompleteSnapshot reports an Adopt of a checkpoint whose run had
// not finished: unresolved possible pairs remain, so no complete taxonomy
// can be built from it. The snapshot itself is valid — resuming the
// classification via Options.ResumeFrom will finish it.
var ErrIncompleteSnapshot = errors.New("core: checkpoint snapshot is not a completed classification")

// errAdoptReasoner fires if adoption ever reaches a reasoner call; it
// cannot on a complete snapshot (the hierarchy phase reads only K), so
// hitting it means the completeness check was wrong — fail loudly.
var errAdoptReasoner = errors.New("core: internal error: reasoner invoked while adopting a completed checkpoint")

// adoptReasoner is the plug-in slot filler for reasoner-free adoption.
type adoptReasoner struct{}

func (adoptReasoner) Sat(context.Context, *dl.Concept) (bool, error) {
	return false, errAdoptReasoner
}

func (adoptReasoner) Subs(context.Context, *dl.Concept, *dl.Concept) (bool, error) {
	return false, errAdoptReasoner
}

// AdoptOptions configures Adopt. Only the snapshot path is required.
type AdoptOptions struct {
	// Snapshot is the checkpoint file of a completed run.
	Snapshot string
	// Workers sizes the pool building the hierarchy (phase 3) and the
	// kernel compile; 0 means runtime.GOMAXPROCS(0).
	Workers int
}

// Adopt rebuilds a completed classification from its checkpoint file
// without any reasoner: it restores the shared state, verifies the run
// actually finished (zero unresolved pairs), rebuilds the taxonomy from
// the K sets — byte-identical to the original run's, since phase 3 is a
// pure function of K — and compiles its query kernel. The returned
// Result carries the original run's restored Stats and Undecided list,
// and Resumed is always true.
//
// Errors: a missing/truncated/corrupt/mismatched snapshot wraps
// ErrBadSnapshot; a valid but unfinished one wraps ErrIncompleteSnapshot.
// Unlike ClassifyContext's ResumeFrom, Adopt NEVER falls back to a clean
// classification — the caller decides whether and when to reclassify.
func Adopt(ctx context.Context, t *dl.TBox, opts AdoptOptions) (*Result, error) {
	if opts.Snapshot == "" {
		return nil, fmt.Errorf("core: AdoptOptions.Snapshot is required")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t.Freeze()
	snap, err := readSnapshotFile(opts.Snapshot)
	if err != nil {
		return nil, err
	}
	s := stateFor(t, adoptReasoner{}, snap.optimized)
	s.ctx = ctx
	if err := s.restoreSnapshot(snap); err != nil {
		return nil, err
	}
	if rem := s.remainingPossible(); rem != 0 {
		return nil, fmt.Errorf("%w: %d unresolved possible pairs remain (phase %s)",
			ErrIncompleteSnapshot, rem, snap.phase)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := newPool(workers, RoundRobin, &s.count.Steals)
	p.onPanic = func(r any) {
		s.fail(fmt.Errorf("core: adopt: panic building hierarchy: %v", r))
	}
	defer p.close()
	tax, err := s.buildTaxonomy(p, nil)
	if err != nil {
		return nil, err
	}
	tax.CompileKernel(workers)
	return &Result{
		Taxonomy:  tax,
		Stats:     s.stats(),
		Undecided: s.takeUndecided(),
		Resumed:   true,
	}, nil
}
