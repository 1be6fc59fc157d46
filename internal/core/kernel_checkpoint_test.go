package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"
)

// kernelFrameMagic mirrors the taxonomy package's kernel frame magic so
// the tests below can locate the kernel section inside a snapshot file.
var kernelFrameMagic = []byte("PAROWLKF")

// resealSnapshot recomputes the trailing whole-file CRC after a test has
// rewritten snapshot bytes, so corruption inside the kernel frame is
// exercised on an otherwise-valid file (a real torn write is caught by
// the outer CRC long before the kernel frame matters).
func resealSnapshot(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// Offsets of the fixed-header fields the tests below rewrite: the
// version follows the magic, the epoch follows the fingerprint and the
// mode, prepassed and phase bytes.
const (
	snapVersionOffset = 8
	snapEpochOffset   = 8 + 4 + 8 + 3
)

// withVersion returns data with its version field set to v and the
// whole-file CRC resealed, so only the version check can refuse it.
func withVersion(data []byte, v uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[snapVersionOffset:], v)
	return resealSnapshot(out)
}

// TestKernelCheckpointRoundTrip: a completed run with CompileKernel and
// Checkpoint persists its kernel; the resumed run adopts it, answers
// identically, and dispatches no new reasoner calls.
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
	snap, err := decodeSnapshot(data)
	if err != nil {
		t.Fatalf("snapshot rejected: %v", err)
	}
	if snap.kernel == nil || snap.kernelErr != nil {
		t.Fatalf("snapshot kernel = %v, err = %v; want decoded kernel", snap.kernel, snap.kernelErr)
	}

	res := classify(t, tb, Options{Workers: 3, CompileKernel: true, ResumeFrom: path})
	if !res.Resumed || res.ResumeError != nil {
		t.Fatalf("Resumed=%v ResumeError=%v", res.Resumed, res.ResumeError)
	}
	if res.KernelError != nil {
		t.Fatalf("KernelError = %v, want nil", res.KernelError)
	}
	if res.Taxonomy.Kernel() == nil {
		t.Fatal("resumed run has no kernel")
	}
	if res.Stats.SubsTests != ref.Stats.SubsTests || res.Stats.SatTests != ref.Stats.SatTests {
		t.Fatalf("resumed run re-tested: %+v vs %+v", res.Stats, ref.Stats)
	}
	assertSameAnswers(t, ref, res)
}

// assertSameAnswers compares taxonomy structure and a sweep of kernel
// queries between two results.
func assertSameAnswers(t *testing.T, ref, res *Result) {
	t.Helper()
	if got, want := res.Taxonomy.Render(), ref.Taxonomy.Render(); got != want {
		t.Fatalf("taxonomy differs:\n got:\n%s\nwant:\n%s", got, want)
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
}

// TestCheckpointKernelCorruptFrameFallsBack: a bit flip inside the kernel
// frame (with the outer file CRC re-sealed, as a buggy writer would
// produce) must degrade the resume to recompilation — same taxonomy, same
// answers, KernelError wrapping ErrBadSnapshot — never reject the
// classification state or serve wrong answers.
func TestCheckpointKernelCorruptFrameFallsBack(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	ref := classify(t, tb, Options{Workers: 2, CompileKernel: true, Checkpoint: path})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, kernelFrameMagic)
	if idx < 0 {
		t.Fatal("snapshot carries no kernel frame")
	}
	pristine, err := decodeSnapshot(data)
	if err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Flip a byte in the middle of the kernel frame's payload.
	bad := append([]byte(nil), data...)
	bad[idx+len(kernelFrameMagic)+20] ^= 0x20
	bad = resealSnapshot(bad)
	// The epoch lives in the fixed header, so a bad kernel frame cannot
	// take it down with it.
	snap, err := decodeSnapshot(bad)
	if err != nil {
		t.Fatalf("corrupt kernel frame rejected the snapshot: %v", err)
	}
	if snap.epoch != pristine.epoch {
		t.Fatalf("epoch after kernel-frame corruption = %d, want %d", snap.epoch, pristine.epoch)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	res := classify(t, tb, Options{Workers: 2, CompileKernel: true, ResumeFrom: path})
	if !res.Resumed || res.ResumeError != nil {
		t.Fatalf("corrupt kernel frame rejected the whole snapshot: Resumed=%v err=%v", res.Resumed, res.ResumeError)
	}
	if !errors.Is(res.KernelError, ErrBadSnapshot) {
		t.Fatalf("KernelError = %v, want ErrBadSnapshot", res.KernelError)
	}
	if res.Taxonomy.Kernel() == nil {
		t.Fatal("kernel was not recompiled after corrupt frame")
	}
	if got, want := res.Taxonomy.Render(), ref.Taxonomy.Render(); got != want {
		t.Fatalf("taxonomy differs after kernel fallback:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointKernelMismatchRejected: a structurally valid kernel frame
// belonging to a different taxonomy (spliced in from another ontology's
// run) must fail adoption by fingerprint and trigger recompilation.
func TestCheckpointKernelMismatchRejected(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	classify(t, tb, Options{Workers: 2, CompileKernel: true, Checkpoint: path})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	other := classify(t, chainTBox(5), Options{Workers: 2, CompileKernel: true})
	otherFrame := other.Taxonomy.Kernel().AppendBinary(nil)

	idx := bytes.Index(data, kernelFrameMagic)
	if idx < 0 {
		t.Fatal("snapshot carries no kernel frame")
	}
	spliced := append(append([]byte(nil), data[:idx]...), otherFrame...)
	if err := os.WriteFile(path, resealSnapshot(append(spliced, 0, 0, 0, 0)), 0o644); err != nil {
		t.Fatal(err)
	}

	res := classify(t, tb, Options{Workers: 2, CompileKernel: true, ResumeFrom: path})
	if !res.Resumed || res.ResumeError != nil {
		t.Fatalf("Resumed=%v ResumeError=%v", res.Resumed, res.ResumeError)
	}
	if !errors.Is(res.KernelError, ErrBadSnapshot) {
		t.Fatalf("KernelError = %v, want ErrBadSnapshot", res.KernelError)
	}
	if res.Taxonomy.Kernel() == nil {
		t.Fatal("kernel was not recompiled after mismatch")
	}
}

// TestSnapshotKernelDecodeFuzz extends the snapshot mutation fuzz to
// kernel-bearing files: mutations either fail with ErrBadSnapshot or, if
// only the kernel frame is damaged behind a re-sealed outer CRC, decode
// with kernelErr set — never panic, never yield a bound kernel silently.
func TestSnapshotKernelDecodeFuzz(t *testing.T) {
	tb := exampleTBox()
	path := ckPath(t)
	classify(t, tb, Options{Workers: 2, CompileKernel: true, Checkpoint: path})
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(good, kernelFrameMagic)
	if idx < 0 {
		t.Fatal("no kernel frame in snapshot")
	}
	snap, err := decodeSnapshot(good)
	if err != nil || snap.kernel == nil {
		t.Fatalf("pristine kernel snapshot rejected: %v (kernel %v)", err, snap != nil && snap.kernel != nil)
	}
	// The kernel frame runs up to the whole-file CRC: sweep mutations over
	// all of it.
	for i := idx; i < len(good)-4; i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x08
		snap, err := decodeSnapshot(resealSnapshot(bad))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("byte %d: error does not wrap ErrBadSnapshot: %v", i, err)
			}
			continue
		}
		if snap.kernel != nil {
			t.Fatalf("byte %d: corrupted kernel frame decoded into a kernel", i)
		}
		if !errors.Is(snap.kernelErr, ErrBadSnapshot) {
			t.Fatalf("byte %d: kernelErr = %v, want ErrBadSnapshot", i, snap.kernelErr)
		}
	}
	// A damaged kernel marker must reject the file outright...
	bad := append([]byte(nil), good...)
	bad[idx-1] ^= 0x08
	if _, err := decodeSnapshot(resealSnapshot(bad)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("kernel marker flip: error = %v, want ErrBadSnapshot", err)
	}
	// ...while a flipped epoch value in the header is simply a different
	// (valid) epoch: the field is a counter, not classification state.
	bad = append([]byte(nil), good...)
	bad[snapEpochOffset] ^= 0x08
	flipped, err := decodeSnapshot(resealSnapshot(bad))
	if err != nil || flipped.kernel == nil {
		t.Fatalf("epoch value flip rejected the snapshot: %v (kernel %v)", err, flipped != nil && flipped.kernel != nil)
	}
	if flipped.epoch == snap.epoch {
		t.Fatal("epoch value flip did not change the decoded epoch")
	}
}
