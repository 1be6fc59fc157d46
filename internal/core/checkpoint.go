package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"parowl/internal/bitset"
	"parowl/internal/dl"
)

// Checkpoint snapshots make a classification run crash-safe: the shared
// P/K bitsets, satisfiability states and undecided pairs are written to
// disk at phase/batch boundaries, and Options.ResumeFrom restores them
// so a re-run skips all settled work and converges to the same taxonomy.
//
// Consistency: a snapshot is taken only at pool quiescence — under
// RoundRobin between batch barriers, under Async at an epoch edge
// (the pending-task counter at zero). In either case every claimed test
// (a cleared P bit: a pair in optimized mode, a directed entry in basic
// mode) has its outcome fully recorded in K or in the undecided list, so
// restoring the snapshot can never lose a claim's answer. For the same
// reason no plug-in memo is persisted: every answer it could hold is
// already in the bitsets, and a resumed run never asks for one again. Each
// quiescence point closes an epoch, and the snapshot records the epoch
// count it was cut at (monotonic across resumes). A poisoned run
// (s.failed()) is never snapshotted: its workers may have claimed pairs
// whose outcome was abandoned mid-flight.
//
// File format (all integers little-endian):
//
//	[8]byte  magic "PAROWLCK"
//	uint32   version (currently 5)
//	uint64   ontology fingerprint (FNV-1a over names + axioms)
//	uint8    mode (1 = optimized, 0 = basic)
//	uint8    prepassed
//	uint8    phase (0 = random, 1 = group)
//	uint64   epoch — the quiescence count the snapshot was cut at
//	uint32   n (concept count incl. ⊤)
//	9×int64  counters: every Stats counter but Steals, in the order of
//	         Stats.cells (sat, subs, pruned, preseeded, filter hits, timed
//	         out, recovered, node budget, branch budget)
//	n frames P, n frames K (bitset.Atomic binary frames, self-checksummed)
//	n bytes  satState values (0/1/2)
//	uint32   undecided count; per entry: int32 sup (−1 = nil), int32 sub,
//	         uint16 reason length, reason bytes
//	uint32   CRC-32 (IEEE) of everything above
//
// Every section is always present, so the decoder has no optional
// branches. The query kernel is not stored: it is a pure function of the
// taxonomy phase 3 rebuilds from K, so a restored run compiles it. Older
// versions are refused like any unknown version: v1 carried the kernel
// and epoch as trailing optional sections, v2 a tenth counter (told
// hits) and a plug-in cache section, v3 a kernel marker and the kernel's
// frame, v4 a basic-mode tested matrix behind a marker byte. The
// trailing whole-file checksum catches truncation; the per-bitset frame
// checksums catch local corruption with a better error.

// checkpointMagic identifies parowl checkpoint files.
var checkpointMagic = [8]byte{'P', 'A', 'R', 'O', 'W', 'L', 'C', 'K'}

// checkpointVersion is bumped on any incompatible format change.
const checkpointVersion = 5

// ErrBadSnapshot reports a checkpoint file that is truncated, corrupted,
// of an unknown version, or inconsistent with the run it is restored
// into. All snapshot decode/restore errors wrap it; classification
// responds by falling back to a clean run, never by producing a wrong
// taxonomy.
var ErrBadSnapshot = errors.New("core: invalid checkpoint snapshot")

// FingerprintTBox hashes the ontology content a snapshot depends on: the
// named-concept sequence (whose first-use order fixes the classifier's
// index space and the factory's dense IDs) and every axiom's kind and
// rendered sides. Two loads of the same ontology fingerprint equal; any
// axiom or naming change invalidates old snapshots.
func FingerprintTBox(t *dl.TBox) uint64 {
	h := fnv.New64a()
	var num [8]byte
	for _, c := range t.NamedConcepts() {
		h.Write([]byte(c.String()))
		h.Write([]byte{0})
	}
	h.Write([]byte{0xFF})
	for _, ax := range t.Axioms() {
		h.Write([]byte{byte(ax.Kind)})
		for _, c := range []*dl.Concept{ax.Sub, ax.Sup} {
			if c != nil {
				h.Write([]byte(c.String()))
			}
			h.Write([]byte{0})
		}
		for _, r := range []*dl.Role{ax.SubRole, ax.SupRole} {
			if r != nil {
				h.Write([]byte(r.Name))
			}
			h.Write([]byte{0})
		}
	}
	binary.LittleEndian.PutUint64(num[:], uint64(len(t.Axioms())))
	h.Write(num[:])
	return h.Sum64()
}

// snapshot is a decoded checkpoint, not yet bound to a run.
type snapshot struct {
	fingerprint uint64
	optimized   bool
	prepassed   bool
	phase       Phase
	n           int
	stats       Stats // the persisted counters; Steals stays zero
	P, K        []*bitset.Atomic
	satState    []int32
	undecided   []undecidedRef
	// epoch is the quiescence count the snapshot was cut at.
	epoch int64
}

// undecidedRef is an Undecided entry with concepts replaced by their
// state indexes (−1 = nil Sup, the sat?-test case).
type undecidedRef struct {
	sup, sub int32
	reason   string
}

// encodeSnapshot serializes the current shared state. Call only between
// barriers on a non-failed run; see the consistency note above.
func (s *state) encodeSnapshot(phase Phase, epoch int64) []byte {
	phaseByte := byte(0)
	if phase == PhaseGroup {
		phaseByte = 1
	}
	modeByte := byte(0)
	if s.optimized {
		modeByte = 1
	}
	prepassByte := byte(0)
	if s.prepassed {
		prepassByte = 1
	}
	b := make([]byte, 0, 64+2*s.n*(s.n/8+16))
	b = append(b, checkpointMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, checkpointVersion)
	b = binary.LittleEndian.AppendUint64(b, FingerprintTBox(s.tbox))
	b = append(b, modeByte, prepassByte, phaseByte)
	b = binary.LittleEndian.AppendUint64(b, uint64(epoch))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.n))
	for _, c := range s.count.persisted() {
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Load()))
	}
	for _, p := range s.P {
		b = p.AppendBinary(b)
	}
	for _, k := range s.K {
		b = k.AppendBinary(b)
	}
	for i := 0; i < s.n; i++ {
		b = append(b, byte(s.satState[i].Load()))
	}
	s.undecidedMu.Lock()
	und := append([]Undecided(nil), s.undecided...)
	s.undecidedMu.Unlock()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(und)))
	for _, u := range und {
		sup := int32(-1)
		if u.Sup != nil {
			sup = int32(s.index[u.Sup])
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(sup))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(s.index[u.Sub])))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(u.Reason)))
		b = append(b, u.Reason...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// snapReader is a bounds-checked cursor over an encoded snapshot.
type snapReader struct {
	data []byte
	err  error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data) < n {
		r.err = fmt.Errorf("%w: truncated (need %d more bytes)", ErrBadSnapshot, n-len(r.data))
		return nil
	}
	out := r.data[:n]
	r.data = r.data[n:]
	return out
}

func (r *snapReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *snapReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// decodeSnapshot parses and structurally validates an encoded checkpoint.
// It does not check the snapshot against any particular run; restore does
// that.
func decodeSnapshot(data []byte) (*snapshot, error) {
	if len(data) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("%w: file too short (%d bytes)", ErrBadSnapshot, len(data))
	}
	if string(data[:8]) != string(checkpointMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	// Whole-file checksum first: it distinguishes truncation/corruption
	// from version or compatibility problems.
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: file checksum mismatch (%08x != %08x)", ErrBadSnapshot, got, want)
	}
	r := &snapReader{data: body[8:]}
	if v := r.u32(); v != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrBadSnapshot, v, checkpointVersion)
	}
	snap := &snapshot{fingerprint: r.u64()}
	snap.optimized = r.u8() == 1
	snap.prepassed = r.u8() == 1
	switch r.u8() {
	case 0:
		snap.phase = PhaseRandom
	case 1:
		snap.phase = PhaseGroup
	default:
		return nil, fmt.Errorf("%w: unknown phase byte", ErrBadSnapshot)
	}
	snap.epoch = int64(r.u64())
	snap.n = int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	// n is validated against the byte budget before any n-sized
	// allocation: each concept contributes ≥ two bitset frames.
	if snap.n < 1 || snap.n > len(r.data)/16 {
		return nil, fmt.Errorf("%w: implausible concept count %d", ErrBadSnapshot, snap.n)
	}
	for _, c := range snap.stats.persisted() {
		*c = int64(r.u64())
	}
	if r.err != nil {
		return nil, r.err
	}
	readAtomics := func(dst []*bitset.Atomic, what string) error {
		for i := range dst {
			a, rest, err := bitset.ReadAtomic(r.data)
			if err != nil {
				return fmt.Errorf("%w: %s[%d]: %v", ErrBadSnapshot, what, i, err)
			}
			if a.Len() != snap.n {
				return fmt.Errorf("%w: %s[%d] has %d bits, want %d", ErrBadSnapshot, what, i, a.Len(), snap.n)
			}
			dst[i], r.data = a, rest
		}
		return nil
	}
	snap.P = make([]*bitset.Atomic, snap.n)
	snap.K = make([]*bitset.Atomic, snap.n)
	if err := readAtomics(snap.P, "P"); err != nil {
		return nil, err
	}
	if err := readAtomics(snap.K, "K"); err != nil {
		return nil, err
	}
	snap.satState = make([]int32, snap.n)
	for i, v := range r.take(snap.n) {
		if v > 2 {
			return nil, fmt.Errorf("%w: satState[%d] = %d", ErrBadSnapshot, i, v)
		}
		snap.satState[i] = int32(v)
	}
	nu := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if nu > len(r.data)/10 { // each entry is ≥ 10 bytes
		return nil, fmt.Errorf("%w: implausible undecided count %d", ErrBadSnapshot, nu)
	}
	snap.undecided = make([]undecidedRef, 0, nu)
	for i := 0; i < nu; i++ {
		sup := int32(r.u32())
		sub := int32(r.u32())
		reason := string(r.take(int(r.u16())))
		if r.err != nil {
			return nil, r.err
		}
		if sup < -1 || sup >= int32(snap.n) || sub < 0 || sub >= int32(snap.n) {
			return nil, fmt.Errorf("%w: undecided[%d] indexes (%d, %d) out of range", ErrBadSnapshot, i, sup, sub)
		}
		snap.undecided = append(snap.undecided, undecidedRef{sup: sup, sub: sub, reason: reason})
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(r.data))
	}
	return snap, nil
}

// restoreSnapshot validates snap against this run's ontology and
// configuration and, on success, installs the snapshot's shared state:
// its P and K sets become the run's, so a state from stateFor
// needs no fresh ones. Must run before any worker touches the state. The
// returned error always wraps ErrBadSnapshot; the state is untouched
// when it fires.
func (s *state) restoreSnapshot(snap *snapshot) error {
	if got := FingerprintTBox(s.tbox); got != snap.fingerprint {
		return fmt.Errorf("%w: ontology fingerprint %016x does not match snapshot %016x (different or modified ontology)",
			ErrBadSnapshot, got, snap.fingerprint)
	}
	if snap.n != s.n {
		return fmt.Errorf("%w: snapshot has %d concepts, run has %d", ErrBadSnapshot, snap.n, s.n)
	}
	if snap.optimized != s.optimized {
		return fmt.Errorf("%w: snapshot mode %v does not match run mode %v",
			ErrBadSnapshot, Mode(b2i(!snap.optimized)), Mode(b2i(!s.optimized)))
	}
	s.P, s.K = snap.P, snap.K
	for i, v := range snap.satState {
		s.satState[i].Store(v)
	}
	s.prepassed = snap.prepassed
	src := snap.stats.persisted()
	for i, c := range s.count.persisted() {
		c.Store(*src[i])
	}
	s.epochBase = snap.epoch
	s.undecided = s.undecided[:0]
	for _, u := range snap.undecided {
		var sup *dl.Concept
		if u.sup >= 0 {
			sup = s.named[u.sup]
		}
		s.undecided = append(s.undecided, Undecided{Sup: sup, Sub: s.named[u.sub], Reason: u.reason})
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// readSnapshotFile loads and decodes one checkpoint file.
func readSnapshotFile(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return decodeSnapshot(data)
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, so a crash mid-write leaves either the old snapshot or the new
// one, never a torn file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err2 := f.Sync(); err == nil {
		err = err2
	}
	if err2 := f.Close(); err == nil {
		err = err2
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// checkpointer writes periodic snapshots from the classification
// coordinator. All methods run on the coordinating goroutine between
// barriers, never concurrently.
type checkpointer struct {
	path     string
	interval time.Duration
	last     time.Time
	wrote    int   // snapshots written
	err      error // first write failure, reported via Result.CheckpointError
}

// due reports whether an unforced write would pass the interval gate.
// The Async driver asks before paying for a quiescence epoch: with
// checkpointing off (nil receiver) or the interval not yet elapsed, it
// keeps streaming instead of draining the pool for a snapshot nobody
// would write.
func (c *checkpointer) due() bool {
	if c == nil {
		return false
	}
	return c.interval <= 0 || c.last.IsZero() || time.Since(c.last) >= c.interval
}

// write snapshots the state if the interval has elapsed (an interval ≤ 0
// writes at every boundary); force overrides the interval for the final
// snapshot. epoch is the quiescence count the caller is at. Failed runs
// are never snapshotted.
func (c *checkpointer) write(s *state, phase Phase, force bool, epoch int64) {
	if c == nil || s.failed() || !force && !c.due() {
		return
	}
	if err := writeFileAtomic(c.path, s.encodeSnapshot(phase, epoch)); err != nil {
		if c.err == nil {
			c.err = fmt.Errorf("core: checkpoint write: %w", err)
		}
		return
	}
	c.wrote++
	c.last = time.Now()
}

// firstErr returns the first write failure (nil receiver safe).
func (c *checkpointer) firstErr() error {
	if c == nil {
		return nil
	}
	return c.err
}
