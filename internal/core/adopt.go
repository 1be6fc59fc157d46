package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"parowl/internal/dl"
	"parowl/internal/taxonomy"
)

// Adoption is the restart path of a long-lived serving process: a daemon
// that already classified an ontology and checkpointed the finished run
// (its final snapshot, which holds the hierarchy; see checkpoint.go) wants
// the taxonomy and kernel back at boot WITHOUT a reasoner and WITHOUT the
// clean-run fallback that ClassifyContext's ResumeFrom performs on a bad
// snapshot. Reclassifying at boot is exactly what a restart-tolerant
// registry must avoid, so Adopt inverts the failure policy: an unusable
// snapshot is an error the caller handles (degrade the entry, reclassify
// later, on its own schedule), never a silent multi-minute
// reclassification.

// ErrIncompleteSnapshot reports an Adopt of a checkpoint whose run had
// not finished: it holds the run's P and K sets, not its hierarchy, so no
// taxonomy can be built from it without classifying. The snapshot itself
// is valid — resuming the classification via Options.ResumeFrom will
// finish it.
var ErrIncompleteSnapshot = errors.New("core: checkpoint snapshot is not a completed classification")

// AdoptOptions configures Adopt. Only the snapshot path is required.
type AdoptOptions struct {
	// Snapshot is the checkpoint file of a finished run.
	Snapshot string
	// Workers sizes the kernel compile; 0 means runtime.GOMAXPROCS(0).
	Workers int
}

// Adopt rebuilds a finished classification from its checkpoint file
// without any reasoner: it decodes the stored hierarchy, builds the
// taxonomy from it — byte-identical to the original run's, since the run
// built its own from the same hierarchy — and compiles its query kernel.
// It builds no classification state and runs no phase 3. The returned
// Result carries the original run's restored Stats and Undecided list,
// and Resumed is always true.
//
// Errors: a missing/truncated/corrupt/mismatched snapshot wraps
// ErrBadSnapshot; a valid snapshot of an unfinished run wraps
// ErrIncompleteSnapshot. Unlike ClassifyContext's ResumeFrom, Adopt NEVER
// falls back to a clean classification — the caller decides whether and
// when to reclassify.
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
	if !snap.finished() {
		return nil, fmt.Errorf("%w: cut in phase %s", ErrIncompleteSnapshot, snap.phase)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return snap.adopt(t, snap.optimized, workers, true)
}

// adopt turns a finished snapshot into the Result of its run over t,
// classified in optimized or basic mode: it checks the snapshot against
// the run, builds the taxonomy from the stored hierarchy, compiles the
// kernel on workers when kernel is set, and restores the run's Stats and
// Undecided list. Adopt and a ResumeFrom naming a finished file both end
// here. Every error wraps ErrBadSnapshot.
func (snap *snapshot) adopt(t *dl.TBox, optimized bool, workers int, kernel bool) (*Result, error) {
	named := conceptsOf(t)
	if err := snap.matches(t, len(named), optimized); err != nil {
		return nil, err
	}
	tax, err := taxonomy.Build(t.Factory, named, snap.class, snap.children)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if kernel {
		tax.CompileKernel(workers)
	}
	und := snap.undecidedOf(named)
	sortUndecided(und)
	return &Result{Taxonomy: tax, Stats: snap.stats, Undecided: und, Resumed: true}, nil
}
