package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
)

// TestAdoptCompletedCheckpoint proves the daemon-restart contract: a
// finished checkpoint, written under either policy, in either mode and
// with the pipeline off or on, is adopted without a reasoner, and the
// adopted taxonomy renders, prints as DOT and answers queries like the
// run that wrote it, whose Stats and Undecided list it restores (one run
// abandons a test).
func TestAdoptCompletedCheckpoint(t *testing.T) {
	for _, run := range finishedRuns(t) {
		t.Run(run.name, func(t *testing.T) {
			res, err := Adopt(context.Background(), run.tb, AdoptOptions{Snapshot: run.path, Workers: 3})
			if err != nil {
				t.Fatalf("Adopt: %v", err)
			}
			if !res.Resumed {
				t.Fatal("Adopt result not marked Resumed")
			}
			if res.Taxonomy.Kernel() == nil {
				t.Fatal("adopted taxonomy has no kernel")
			}
			assertSameResult(t, run.res, res)
		})
	}
}

// TestAdoptRejectsIncomplete feeds Adopt structurally valid snapshots of
// runs that have not finished and expects ErrIncompleteSnapshot — never a
// silent fallback to reclassification: a fresh run's, and one cut right
// after a complete EL prepass, whose P is empty but which holds no
// hierarchy yet. Resuming the second finishes it without a plug-in call,
// to the clean run's taxonomy and a finished checkpoint.
func TestAdoptRejectsIncomplete(t *testing.T) {
	tb := exampleTBox()
	fresh := newState(tb, nil, true)
	prepassed := newState(tb, noCalls(tb), true)
	p := newPool(2, RoundRobin, &prepassed.count.Steals)
	prepassed.runPrepass(p, 2, newFragment(tb, 2), nil, nil)
	p.close()
	if rem := prepassed.remainingPossible(); rem != 0 {
		t.Fatalf("the prepass left %d possible pairs; the fragment should be complete", rem)
	}
	paths := map[string]string{}
	for name, s := range map[string]*state{"fresh": fresh, "post-prepass": prepassed} {
		paths[name] = ckPath(t)
		if err := os.WriteFile(paths[name], s.snapshot(PhaseRandom, 1).encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Adopt(context.Background(), tb, AdoptOptions{Snapshot: paths[name]}); !errors.Is(err, ErrIncompleteSnapshot) {
			t.Fatalf("%s: Adopt = %v, want ErrIncompleteSnapshot", name, err)
		}
	}

	out := ckPath(t)
	res := classify(t, tb, Options{Workers: 2, Reasoner: noCalls(tb), ResumeFrom: paths["post-prepass"], Checkpoint: out})
	if !res.Resumed || res.ResumeError != nil {
		t.Fatalf("post-prepass: Resumed=%v ResumeError=%v", res.Resumed, res.ResumeError)
	}
	if got, want := res.Taxonomy.Render(), classify(t, tb, Options{Workers: 2}).Taxonomy.Render(); got != want {
		t.Fatalf("post-prepass: resumed taxonomy differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if snap, err := readSnapshotFile(out); err != nil || !snap.finished() {
		t.Fatalf("post-prepass: the resumed run's checkpoint is not a finished one (err %v)", err)
	}
}

// TestAdoptRejectsBadFiles covers the degrade-never-boot-fail inputs the
// server leans on: missing file, corrupt bytes, version-1 to -5 files, an
// implausible concept count, wrong ontology, and hierarchy sections that
// pass their checksums but break an invariant of the hierarchy.
func TestAdoptRejectsBadFiles(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	classify(t, tb, Options{Workers: 3, CompileKernel: true, Checkpoint: path})
	adopt := func(p string) error {
		_, err := Adopt(context.Background(), tb, AdoptOptions{Snapshot: p})
		return err
	}
	writeFile := func(name string, data []byte) string {
		p := path + "." + name
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if err := adopt(path + ".missing"); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("missing file: err = %v, want ErrBadSnapshot", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF
	if err := adopt(writeFile("corrupt", bad)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupt file: err = %v, want ErrBadSnapshot", err)
	}

	for _, v := range []uint32{1, 2, 3, 4, 5} {
		if err := adopt(writeFile(fmt.Sprintf("v%d", v), withVersion(data, v))); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("version-%d file: err = %v, want ErrBadSnapshot", v, err)
		}
	}
	for name, file := range map[string][]byte{
		"finished":   data,
		"unfinished": newState(tb, nil, true).snapshot(PhaseGroup, 1).encode(),
	} {
		if err := adopt(writeFile("huge-n-"+name, withConceptCount(file, 1<<31-1))); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s file claiming 2³¹−1 concepts: err = %v, want ErrBadSnapshot", name, err)
		}
	}

	other := exampleTBox()
	other.SubClassOf(other.Declare("AdoptOnlyExtra"), other.Factory.Top())
	if _, err := Adopt(context.Background(), other, AdoptOptions{Snapshot: path}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("mismatched ontology: err = %v, want ErrBadSnapshot", err)
	}

	// The example's indexes: A..F are 0..5 and ⊤ is 6; A ≡ ⊤ (class 0),
	// B and C below A, E below B, D and F below C.
	for name, edit := range map[string]func(h *hierarchy){
		"class past n":             func(h *hierarchy) { h.class[1] = 7 },
		"class below -1":           func(h *hierarchy) { h.class[1] = -2 },
		"class not representative": func(h *hierarchy) { h.class[3] = 6 },
		"⊤ unsatisfiable":          func(h *hierarchy) { h.class[6] = -1 },
		"child not representative": func(h *hierarchy) { h.children[1] = []int{6} },
		"child unsatisfiable":      func(h *hierarchy) { h.class[5] = -1 },
		"self edge":                func(h *hierarchy) { h.children[1] = []int{1, 4} },
		"descending children":      func(h *hierarchy) { h.children[2] = []int{5, 3} },
		"repeated child":           func(h *hierarchy) { h.children[2] = []int{3, 3} },
		"cycle":                    func(h *hierarchy) { h.children[4] = []int{1} },
	} {
		snap, err := decodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		edit(&snap.hierarchy)
		if err := adopt(writeFile("hierarchy", snap.encode())); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}
