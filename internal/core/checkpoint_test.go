package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"parowl/internal/dl"
	"parowl/internal/reasoner"
)

// ckPath returns a per-test checkpoint file path.
func ckPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.ck")
}

// TestCheckpointResumeCompletedRun: resuming from a completed run's final
// snapshot must reproduce the taxonomy without a single new reasoner
// dispatch — all pairs are already settled.
func TestCheckpointResumeCompletedRun(t *testing.T) {
	for _, mode := range []Mode{Optimized, Basic} {
		tb := exampleTBox()
		path := ckPath(t)
		ref := classify(t, tb, Options{Workers: 3, Mode: mode, Checkpoint: path})
		if ref.CheckpointError != nil {
			t.Fatalf("mode %v: checkpoint error: %v", mode, ref.CheckpointError)
		}

		res := classify(t, tb, Options{Workers: 3, Mode: mode, ResumeFrom: path})
		if !res.Resumed || res.ResumeError != nil {
			t.Fatalf("mode %v: Resumed=%v ResumeError=%v", mode, res.Resumed, res.ResumeError)
		}
		if got, want := res.Taxonomy.Render(), ref.Taxonomy.Render(); got != want {
			t.Fatalf("mode %v: resumed taxonomy differs:\n got:\n%s\nwant:\n%s", mode, got, want)
		}
		// Counters are cumulative across the resume; equal totals mean the
		// resumed run dispatched nothing new.
		if res.Stats.SubsTests != ref.Stats.SubsTests || res.Stats.SatTests != ref.Stats.SatTests {
			t.Fatalf("mode %v: resumed run re-tested: %+v vs %+v", mode, res.Stats, ref.Stats)
		}
	}
}

// countdownReasoner fails every call after the first n with an injected
// error, simulating a crash at a controlled point mid-run.
type countdownReasoner struct {
	reasoner.Interface
	left *atomic.Int64
}

// Unwrap exposes the underlying reasoner so the classifier still finds
// its RowFilter capability through the decorator.
func (c countdownReasoner) Unwrap() reasoner.Interface { return c.Interface }

func (c countdownReasoner) tick() error {
	if c.left.Add(-1) < 0 {
		return reasoner.ErrInjected
	}
	return nil
}

func (c countdownReasoner) Sat(ctx context.Context, x *dl.Concept) (bool, error) {
	if err := c.tick(); err != nil {
		return false, err
	}
	return c.Interface.Sat(ctx, x)
}

func (c countdownReasoner) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	if err := c.tick(); err != nil {
		return false, err
	}
	return c.Interface.Subs(ctx, sup, sub)
}

// TestKillAndResumeEquivalence is the tentpole property: runs aborted at
// arbitrary points and resumed from their last checkpoint must converge
// to the byte-identical taxonomy of an uninterrupted run, across random
// ontologies, both modes and 1-8 workers. Every attempt flips the
// pipeline setting of the one before: the first runs the plain algorithm
// and is sure to crash, and the next resumes its checkpoint with the
// pipeline on — what an old owlclass checkpoint meets under the new
// default — so the prepass runs over a half-classified state, and a
// crash with the pipeline on is resumed with it off.
func TestKillAndResumeEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		var tb *dl.TBox
		if seed%2 == 0 {
			tb = randomMixedTBox(rng, 6+rng.Intn(10))
		} else {
			tb = randomTaxonomyTBox(rng, 6+rng.Intn(10))
		}
		mode := Optimized
		if rng.Intn(2) == 0 {
			mode = Basic
		}
		workers := 1 + rng.Intn(8)
		opts := Options{Workers: workers, Mode: mode, Seed: seed}

		ref := classify(t, tb, opts)
		totalCalls := ref.Stats.SatTests + ref.Stats.SubsTests
		if totalCalls == 0 {
			t.Fatalf("seed %d: the plain run made no plug-in call", seed)
		}
		path := ckPath(t)

		// Crash and resume repeatedly until a run survives; each attempt
		// resumes from the latest snapshot (or clean when none exists yet)
		// and crashes at a fresh random point. The first one crashes by
		// half its calls: with several workers the plain run's call count
		// varies a little from run to run.
		var final *Result
		crashes := 0
		for attempt := 0; ; attempt++ {
			if attempt > 50 {
				t.Fatalf("seed %d: no run survived after %d crashes", seed, attempt)
			}
			var left atomic.Int64
			if attempt == 0 {
				left.Store(rng.Int63n(totalCalls/2 + 1))
			} else {
				left.Store(rng.Int63n(totalCalls + 1))
			}
			o := opts
			if attempt%2 == 1 {
				o = pipelineOn(o)
			}
			o.Reasoner = countdownReasoner{Interface: tableauFactory(tb), left: &left}
			o.Checkpoint = path
			if _, err := os.Stat(path); err == nil {
				o.ResumeFrom = path
			}
			res, err := Classify(tb, o)
			if err != nil {
				if !errors.Is(err, reasoner.ErrInjected) {
					t.Fatalf("seed %d attempt %d: unexpected failure: %v", seed, attempt, err)
				}
				crashes++
				continue // crashed; resume on the next attempt
			}
			if res.ResumeError != nil {
				t.Fatalf("seed %d attempt %d: snapshot rejected: %v", seed, attempt, res.ResumeError)
			}
			final = res
			break
		}
		if crashes == 0 {
			t.Fatalf("seed %d: no attempt crashed; the test proved nothing", seed)
		}
		if got, want := final.Taxonomy.Render(), ref.Taxonomy.Render(); got != want {
			t.Errorf("seed %d (mode %v, workers %d, %d crashes): resumed taxonomy differs:\n got:\n%s\nwant:\n%s",
				seed, mode, workers, crashes, got, want)
		}
		if len(final.Undecided) != 0 {
			t.Errorf("seed %d: undecided after resume: %v", seed, final.Undecided)
		}
	}
}

// TestResumeRejectsBadSnapshots: truncation, corruption, and mismatches
// must surface in Result.ResumeError while the run falls back to a
// correct clean classification.
func TestResumeRejectsBadSnapshots(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	ref := classify(t, tb, Options{Workers: 2, Checkpoint: path})
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}

	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10

	otherTB := chainTBox(4)
	otherPath := ckPath(t)
	classify(t, otherTB, Options{Workers: 2, Checkpoint: otherPath})

	cases := map[string]string{
		"missing":   filepath.Join(dir, "does-not-exist.ck"),
		"empty":     write("empty.ck", nil),
		"garbage":   write("garbage.ck", []byte("not a checkpoint at all")),
		"truncated": write("trunc.ck", good[:len(good)/2]),
		"corrupted": write("flip.ck", flipped),
		"ontology":  otherPath, // valid snapshot of a different ontology
		"version1":  write("v1.ck", withVersion(good, 1)),
		"version2":  write("v2.ck", withVersion(good, 2)),
	}
	for name, p := range cases {
		res := classify(t, tb, Options{Workers: 2, ResumeFrom: p})
		if res.Resumed {
			t.Errorf("%s: snapshot was accepted", name)
		}
		if !errors.Is(res.ResumeError, ErrBadSnapshot) {
			t.Errorf("%s: ResumeError = %v, want ErrBadSnapshot", name, res.ResumeError)
		}
		if got, want := res.Taxonomy.Render(), ref.Taxonomy.Render(); got != want {
			t.Errorf("%s: fallback taxonomy differs:\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}

	// A mode mismatch is a configuration error, not a crash: the snapshot
	// is structurally valid but belongs to the other algorithm variant.
	res := classify(t, tb, Options{Workers: 2, Mode: Basic, ResumeFrom: path})
	if res.Resumed || !errors.Is(res.ResumeError, ErrBadSnapshot) {
		t.Errorf("mode mismatch: Resumed=%v err=%v", res.Resumed, res.ResumeError)
	}
}

// TestSnapshotDecodeFuzz: random mutations of a valid snapshot must never
// decode successfully-but-wrong; they either decode to the identical
// bytes or fail with ErrBadSnapshot.
func TestSnapshotDecodeFuzz(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	classify(t, tb, Options{Workers: 2, Checkpoint: path})
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSnapshot(good); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		bad := append([]byte(nil), good...)
		switch rng.Intn(3) {
		case 0: // flip a bit
			bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
		case 1: // truncate
			bad = bad[:rng.Intn(len(bad))]
		default: // append junk
			bad = append(bad, byte(rng.Intn(256)))
		}
		if _, err := decodeSnapshot(bad); err == nil {
			// A bit flip that CRC-32 misses is possible in principle but
			// astronomically unlikely for single-bit flips; treat survival
			// of an identical payload as the only acceptable outcome.
			if string(bad) != string(good) {
				t.Fatalf("iteration %d: mutated snapshot decoded without error", i)
			}
		} else if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("iteration %d: error does not wrap ErrBadSnapshot: %v", i, err)
		}
	}
}

// TestFingerprintSensitivity: the fingerprint must change under axiom
// edits and renames but be stable across re-builds of the same ontology.
func TestFingerprintSensitivity(t *testing.T) {
	a, b := exampleTBox(), exampleTBox()
	if FingerprintTBox(a) != FingerprintTBox(b) {
		t.Fatal("identical ontologies fingerprint differently")
	}
	c := exampleTBox()
	c.SubClassOf(c.Declare("Z"), c.Factory.Name("A"))
	if FingerprintTBox(a) == FingerprintTBox(c) {
		t.Fatal("added axiom did not change the fingerprint")
	}
	d := dl.NewTBox("renamed")
	x, y := d.Declare("X"), d.Declare("Y")
	d.SubClassOf(y, x)
	e := dl.NewTBox("renamed")
	p, q := e.Declare("P"), e.Declare("Y")
	e.SubClassOf(q, p)
	if FingerprintTBox(d) == FingerprintTBox(e) {
		t.Fatal("renamed concept did not change the fingerprint")
	}
}

// TestCheckpointWriteFailureDoesNotFailRun: an unwritable checkpoint path
// degrades to Result.CheckpointError, not a classification failure.
func TestCheckpointWriteFailureDoesNotFailRun(t *testing.T) {
	tb := exampleTBox()
	res := classify(t, tb, Options{
		Workers:    2,
		Checkpoint: filepath.Join(t.TempDir(), "no-such-dir", "run.ck"),
	})
	if res.CheckpointError == nil {
		t.Fatal("expected CheckpointError for unwritable path")
	}
	want := classify(t, tb, Options{Workers: 2})
	if res.Taxonomy.Render() != want.Taxonomy.Render() {
		t.Fatal("taxonomy differs despite checkpoint failure")
	}
}

// TestCheckpointCounterLayout pins checkpoint v3's counter section: the
// nine persisted counters sit right after the 35-byte header in the order
// sat, subs, pruned, preseeded, filter hits, timed out, recovered, node
// budget, branch budget, and decode and restore into the same Stats.
// Steals is not persisted.
func TestCheckpointCounterLayout(t *testing.T) {
	tb := exampleTBox()
	s := newState(tb, nil, true)
	order := []*atomic.Int64{
		&s.count.SatTests, &s.count.SubsTests, &s.count.Pruned, &s.count.PreSeeded, &s.count.FilterHits,
		&s.count.TimedOut, &s.count.Recovered, &s.count.NodeBudget, &s.count.BranchBudget,
	}
	for i, c := range order {
		c.Store(int64(1000 + i))
	}
	s.count.Steals.Store(77)
	data := s.encodeSnapshot(PhaseGroup, nil, 5)
	const header = 8 + 4 + 8 + 3 + 8 + 4 // magic, version, fingerprint, mode/prepassed/phase, epoch, n
	for i := range order {
		if got := int64(binary.LittleEndian.Uint64(data[header+8*i:])); got != int64(1000+i) {
			t.Errorf("counter %d at offset %d = %d, want %d", i, header+8*i, got, 1000+i)
		}
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	r := newState(tb, nil, true)
	if err := r.restoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	want := s.stats()
	want.Steals = 0
	if got := r.stats(); got != want {
		t.Errorf("restored %+v, want %+v", got, want)
	}
}
