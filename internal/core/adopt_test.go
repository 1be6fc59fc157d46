package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
)

// TestAdoptCompletedCheckpoint proves the daemon-restart contract: a
// completed checkpoint is adopted with zero reasoner calls, the restored
// Stats match the original run's, and every query answer is identical.
func TestAdoptCompletedCheckpoint(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	ref := classify(t, tb, Options{Workers: 3, CompileKernel: true, Checkpoint: path})
	if ref.CheckpointError != nil {
		t.Fatalf("checkpoint error: %v", ref.CheckpointError)
	}

	res, err := Adopt(context.Background(), tb, AdoptOptions{Snapshot: path, Workers: 3})
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if !res.Resumed {
		t.Fatal("Adopt result not marked Resumed")
	}
	if res.Taxonomy.Kernel() == nil {
		t.Fatal("adopted taxonomy has no kernel")
	}
	// The adoptReasoner stub fails any call, so equal counters here prove
	// literally zero sat?/subs? dispatches happened.
	if res.Stats.SubsTests != ref.Stats.SubsTests || res.Stats.SatTests != ref.Stats.SatTests {
		t.Fatalf("adopt re-tested: %+v vs %+v", res.Stats, ref.Stats)
	}
	assertSameAnswers(t, ref, res)
}

// TestAdoptRejectsIncomplete feeds Adopt a structurally valid snapshot of
// a run that has not finished and expects ErrIncompleteSnapshot — never a
// silent fallback to reclassification.
func TestAdoptRejectsIncomplete(t *testing.T) {
	tb := exampleTBox()
	s := newState(tb, adoptReasoner{}, true)
	path := ckPath(t)
	data := s.encodeSnapshot(PhaseRandom, 0)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Adopt(context.Background(), tb, AdoptOptions{Snapshot: path})
	if !errors.Is(err, ErrIncompleteSnapshot) {
		t.Fatalf("Adopt of fresh state = %v, want ErrIncompleteSnapshot", err)
	}
}

// TestAdoptRejectsBadFiles covers the degrade-never-boot-fail inputs the
// server leans on: missing file, corrupt bytes, version-1 to -4 files,
// wrong ontology.
func TestAdoptRejectsBadFiles(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	classify(t, tb, Options{Workers: 3, CompileKernel: true, Checkpoint: path})

	if _, err := Adopt(context.Background(), tb, AdoptOptions{Snapshot: path + ".missing"}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("missing file: err = %v, want ErrBadSnapshot", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF
	corrupt := path + ".corrupt"
	if err := os.WriteFile(corrupt, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Adopt(context.Background(), tb, AdoptOptions{Snapshot: corrupt}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupt file: err = %v, want ErrBadSnapshot", err)
	}

	for _, v := range []uint32{1, 2, 3, 4} {
		old := fmt.Sprintf("%s.v%d", path, v)
		if err := os.WriteFile(old, withVersion(data, v), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Adopt(context.Background(), tb, AdoptOptions{Snapshot: old}); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("version-%d file: err = %v, want ErrBadSnapshot", v, err)
		}
	}

	other := exampleTBox()
	other.SubClassOf(other.Declare("AdoptOnlyExtra"), other.Factory.Top())
	if _, err := Adopt(context.Background(), other, AdoptOptions{Snapshot: path}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("mismatched ontology: err = %v, want ErrBadSnapshot", err)
	}
}
