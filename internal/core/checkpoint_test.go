package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"parowl/internal/bitset"
	"parowl/internal/dl"
	"parowl/internal/reasoner"
	"parowl/internal/taxonomy"
)

// ckPath returns a per-test checkpoint file path.
func ckPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.ck")
}

// resealSnapshot recomputes the trailing whole-file CRC after a test has
// rewritten snapshot bytes, so only the checks behind the CRC can refuse
// the file.
func resealSnapshot(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// Offsets of the fixed-header fields the tests rewrite: the version
// follows the magic, the epoch follows the fingerprint and the mode,
// prepassed and phase bytes, and n follows the epoch.
const (
	snapVersionOffset = 8
	snapEpochOffset   = 8 + 4 + 8 + 3
	snapCountOffset   = snapEpochOffset + 8
)

// withVersion returns data with its version field set to v and the
// whole-file CRC resealed, so only the version check can refuse it.
func withVersion(data []byte, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[snapVersionOffset:], v)
	return resealSnapshot(out)
}

// withConceptCount returns data with its concept count set to n and the
// whole-file CRC resealed.
func withConceptCount(data []byte, n uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[snapCountOffset:], n)
	return resealSnapshot(out)
}

// noCalls returns a plug-in over tb that fails every call, so a run
// that succeeds with it made none.
func noCalls(tb *dl.TBox) reasoner.Interface {
	return countdownReasoner{Interface: tableauFactory(tb), left: new(atomic.Int64)}
}

// finishedRun is a finished classification with a kernel and the
// checkpoint it wrote.
type finishedRun struct {
	name string
	tb   *dl.TBox
	opts Options
	res  *Result
	path string
}

// finishedRuns classifies one ontology with a checkpoint under both
// policies, both modes and the pipeline off and on, and a chain once with
// one test abandoned under its budget, and returns the runs.
func finishedRuns(t *testing.T) []finishedRun {
	t.Helper()
	var runs []finishedRun
	for _, sched := range []Scheduling{RoundRobin, Async} {
		for _, mode := range []Mode{Optimized, Basic} {
			for _, pipeline := range []bool{false, true} {
				o := Options{Workers: 3, Scheduling: sched, Mode: mode}
				if pipeline {
					o = pipelineOn(o)
				}
				runs = append(runs, finishedRun{
					name: fmt.Sprintf("sched %v, mode %v, pipeline %v", sched, mode, pipeline),
					tb:   randomMixedTBox(rand.New(rand.NewSource(finishedSeed)), 14),
					opts: o,
				})
			}
		}
	}
	runs = append(runs, finishedRun{name: "degraded", tb: chainTBox(6), opts: Options{
		Reasoner:    &hangingReasoner{hangSup: "A2", hangSub: "A3"},
		Workers:     3,
		TestTimeout: 25 * time.Millisecond,
	}})
	for i := range runs {
		r := &runs[i]
		r.path = ckPath(t)
		o := r.opts
		o.CompileKernel, o.Checkpoint = true, r.path
		r.res = classify(t, r.tb, o)
		if r.res.CheckpointError != nil {
			t.Fatalf("%s: checkpoint error: %v", r.name, r.res.CheckpointError)
		}
	}
	tax := runs[0].res.Taxonomy
	if !slices.ContainsFunc(tax.Nodes(), func(n *taxonomy.Node) bool { return n != tax.Bottom() && len(n.Concepts) > 1 }) ||
		len(tax.Bottom().Concepts) < 2 {
		t.Fatalf("seed %d gives no unsatisfiable concept or no equivalence", finishedSeed)
	}
	if d := runs[len(runs)-1].res; len(d.Undecided) != 1 {
		t.Fatalf("degraded run: Undecided = %v, want one entry", d.Undecided)
	}
	return runs
}

// finishedSeed draws finishedRuns' ontology, one with an unsatisfiable
// concept and an equivalence class.
const finishedSeed = 4

// assertSameResult compares an adopted or resumed result with the run
// that wrote its checkpoint: taxonomy render, DOT, a sweep of queries,
// the counters (Steals, which describe one run's scheduling, aside) and
// the undecided list.
func assertSameResult(t *testing.T, ref, res *Result) {
	t.Helper()
	if got, want := res.Taxonomy.Render(), ref.Taxonomy.Render(); got != want {
		t.Fatalf("taxonomy differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := res.Taxonomy.DOT(), ref.Taxonomy.DOT(); got != want {
		t.Fatalf("DOT differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	for _, a := range ref.Taxonomy.Nodes() {
		for _, b := range ref.Taxonomy.Nodes() {
			ca, cb := a.Canonical(), b.Canonical()
			if got, want := res.Taxonomy.IsAncestor(ca, cb), ref.Taxonomy.IsAncestor(ca, cb); got != want {
				t.Fatalf("IsAncestor(%s, %s) = %v, want %v", a.Label(), b.Label(), got, want)
			}
			if got, want := len(res.Taxonomy.LCA(ca, cb)), len(ref.Taxonomy.LCA(ca, cb)); got != want {
				t.Fatalf("LCA(%s, %s) size = %d, want %d", a.Label(), b.Label(), got, want)
			}
		}
		if got, want := res.Taxonomy.Depth(a.Canonical()), ref.Taxonomy.Depth(a.Canonical()); got != want {
			t.Fatalf("Depth(%s) = %d, want %d", a.Label(), got, want)
		}
	}
	want := ref.Stats
	want.Steals = 0
	if got := res.Stats; got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if !slices.Equal(res.Undecided, ref.Undecided) {
		t.Fatalf("Undecided = %v, want %v", res.Undecided, ref.Undecided)
	}
}

// TestCheckpointResumeCompletedRun: resuming from a finished run's
// checkpoint, written under either policy, in either mode and with the
// pipeline off or on, reproduces its taxonomy, answers, counters and
// undecided list without a single plug-in call, and rewrites the
// checkpoint it is given unchanged.
func TestCheckpointResumeCompletedRun(t *testing.T) {
	for _, run := range finishedRuns(t) {
		t.Run(run.name, func(t *testing.T) {
			o := run.opts
			o.Reasoner, o.CompileKernel = noCalls(run.tb), true
			o.ResumeFrom, o.Checkpoint = run.path, ckPath(t)
			res := classify(t, run.tb, o)
			if !res.Resumed || res.ResumeError != nil || res.CheckpointError != nil {
				t.Fatalf("Resumed=%v ResumeError=%v CheckpointError=%v", res.Resumed, res.ResumeError, res.CheckpointError)
			}
			assertSameResult(t, run.res, res)
			written, err := os.ReadFile(run.path)
			if err != nil {
				t.Fatal(err)
			}
			rewritten, err := os.ReadFile(o.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rewritten, written) {
				t.Fatalf("the resumed run wrote %d checkpoint bytes, not the %d it read", len(rewritten), len(written))
			}
		})
	}
}

// TestKernelCheckpointRoundTrip: a completed run with CompileKernel and
// Checkpoint writes a snapshot that decodes. Resuming from it compiles a
// kernel exactly when the resumed run asks for one, dispatches no new
// reasoner calls, and answers like the original run.
func TestKernelCheckpointRoundTrip(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	ref := classify(t, tb, Options{Workers: 3, CompileKernel: true, Checkpoint: path})
	if ref.CheckpointError != nil {
		t.Fatalf("checkpoint error: %v", ref.CheckpointError)
	}
	if ref.Taxonomy.Kernel() == nil {
		t.Fatal("CompileKernel did not attach a kernel")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSnapshot(data); err != nil {
		t.Fatalf("snapshot rejected: %v", err)
	}

	for _, kernel := range []bool{true, false} {
		res := classify(t, tb, Options{Workers: 3, CompileKernel: kernel, ResumeFrom: path})
		if !res.Resumed || res.ResumeError != nil {
			t.Fatalf("CompileKernel %v: Resumed=%v ResumeError=%v", kernel, res.Resumed, res.ResumeError)
		}
		if got := res.Taxonomy.Kernel() != nil; got != kernel {
			t.Fatalf("CompileKernel %v: resumed run has kernel = %v", kernel, got)
		}
		if res.Stats.SubsTests != ref.Stats.SubsTests || res.Stats.SatTests != ref.Stats.SatTests {
			t.Fatalf("CompileKernel %v: resumed run re-tested: %+v vs %+v", kernel, res.Stats, ref.Stats)
		}
		assertSameResult(t, ref, res)
	}
}

// TestCheckpointIgnoresKernel: the query kernel is not part of a
// checkpoint. At one worker a run with CompileKernel and one without
// write the same finished file, and adopting the kernel-less file still
// attaches a kernel that answers like the first run.
func TestCheckpointIgnoresKernel(t *testing.T) {
	tb := exampleTBox()
	withKernel, without := ckPath(t), ckPath(t)
	ref := classify(t, tb, Options{Workers: 1, CompileKernel: true, Checkpoint: withKernel})
	classify(t, tb, Options{Workers: 1, Checkpoint: without})
	a, err := os.ReadFile(withKernel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(without)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("checkpoint with CompileKernel is %d bytes, without %d; want identical files", len(a), len(b))
	}
	if snap, err := decodeSnapshot(b); err != nil || !snap.finished() {
		t.Fatalf("the checkpoint is not a finished one (err %v)", err)
	}

	res, err := Adopt(context.Background(), tb, AdoptOptions{Snapshot: without, Workers: 1})
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if res.Taxonomy.Kernel() == nil {
		t.Fatal("adopted taxonomy has no kernel")
	}
	assertSameResult(t, ref, res)
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
		"version3":  write("v3.ck", withVersion(good, 3)),
		"version4":  write("v4.ck", withVersion(good, 4)),
		"version5":  write("v5.ck", withVersion(good, 5)),
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

// TestSnapshotDecodeFuzz: random mutations of a valid snapshot, a
// finished run's and an unfinished one's, must never decode
// successfully-but-wrong; they either decode to the identical bytes or
// fail with ErrBadSnapshot.
func TestSnapshotDecodeFuzz(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	classify(t, tb, Options{Workers: 2, Checkpoint: path})
	finished, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for name, good := range map[string][]byte{
		"finished":   finished,
		"unfinished": newState(tb, nil, true).snapshot(PhaseRandom, 1).encode(),
	} {
		if _, err := decodeSnapshot(good); err != nil {
			t.Fatalf("%s: pristine snapshot rejected: %v", name, err)
		}
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
					t.Fatalf("%s iteration %d: mutated snapshot decoded without error", name, i)
				}
			} else if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("%s iteration %d: error does not wrap ErrBadSnapshot: %v", name, i, err)
			}
		}
	}
}

// TestSnapshotKernelDecodeFuzz: the snapshot of a run with CompileKernel
// is a finished one and ends with its undecided list. Bytes after it
// (where checkpoint v3 kept the kernel marker and frame) are refused. A
// single-bit flip at any byte behind a resealed CRC, in that file or in
// an unfinished one, either fails with ErrBadSnapshot or decodes to the
// same hierarchy (P and K), never panics, and a flipped epoch decodes as
// a different valid epoch: the field is a counter, not classification
// state.
func TestSnapshotKernelDecodeFuzz(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	classify(t, tb, Options{Workers: 2, CompileKernel: true, Checkpoint: path})
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeSnapshot(good)
	if err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	if !snap.finished() {
		t.Fatalf("the final snapshot was cut in phase %s", snap.phase)
	}

	body := good[:len(good)-4]
	for name, tail := range map[string][]byte{
		"zero byte":     {0},
		"kernel marker": {1},
		"marker+frame":  append([]byte{1}, "kernel frame bytes"...),
	} {
		padded := append(append(append([]byte(nil), body...), tail...), 0, 0, 0, 0)
		if _, err := decodeSnapshot(resealSnapshot(padded)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("trailing %s: error = %v, want ErrBadSnapshot", name, err)
		}
	}

	sameBits := func(a, b []*bitset.Atomic) bool {
		for i := range a {
			if !slices.Equal(a[i].Members(), b[i].Members()) {
				return false
			}
		}
		return true
	}
	same := func(a, b *snapshot) bool {
		if a.n != b.n || !slices.Equal(a.class, b.class) || len(a.children) != len(b.children) {
			return false
		}
		for r := range a.children {
			if !slices.Equal(a.children[r], b.children[r]) {
				return false
			}
		}
		return sameBits(a.P, b.P) && sameBits(a.K, b.K)
	}
	unfinished := newState(tb, nil, true).snapshot(PhaseRandom, 1).encode()
	for _, file := range [][]byte{good, unfinished} {
		want, err := decodeSnapshot(file)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(file)-4; i++ {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte(nil), file...)
				bad[i] ^= 1 << bit
				got, err := decodeSnapshot(resealSnapshot(bad))
				if err != nil {
					if !errors.Is(err, ErrBadSnapshot) {
						t.Fatalf("%s snapshot, byte %d bit %d: error does not wrap ErrBadSnapshot: %v", want.phase, i, bit, err)
					}
					continue
				}
				if !same(got, want) {
					t.Fatalf("%s snapshot, byte %d bit %d: flip decoded into a different hierarchy, P or K", want.phase, i, bit)
				}
			}
		}
	}

	bad := append([]byte(nil), good...)
	bad[snapEpochOffset] ^= 0x08
	flipped, err := decodeSnapshot(resealSnapshot(bad))
	if err != nil {
		t.Fatalf("epoch value flip rejected the snapshot: %v", err)
	}
	if flipped.epoch == snap.epoch {
		t.Fatal("epoch value flip did not change the decoded epoch")
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

// TestCheckpointCounterLayout pins the checkpoint's counter section: the
// nine persisted counters sit right after the 35-byte header in the order
// sat, subs, pruned, preseeded, filter hits, timed out, recovered, node
// budget, branch budget, in an unfinished snapshot and a finished one,
// and decode (and restore) into the same Stats. Steals is not persisted.
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
	want := s.stats()
	want.Steals = 0
	finished := s.snapshot(PhaseHierarchy, 5)
	finished.class = make([]int, s.n)
	for i := range finished.class {
		finished.class[i] = i
	}
	finished.children = make([][]int, s.n)
	for _, data := range [][]byte{s.snapshot(PhaseGroup, 5).encode(), finished.encode()} {
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
		if snap.stats != want {
			t.Errorf("%s snapshot decoded %+v, want %+v", snap.phase, snap.stats, want)
		}
		if snap.finished() {
			continue
		}
		r := newState(tb, nil, true)
		if err := r.restoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if got := r.stats(); got != want {
			t.Errorf("restored %+v, want %+v", got, want)
		}
	}
}
