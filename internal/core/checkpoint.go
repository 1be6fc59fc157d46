package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"time"

	"parowl/internal/bitset"
	"parowl/internal/dl"
)

// Checkpoint snapshots make a classification run crash-safe: while it
// runs, the shared P/K bitsets, satisfiability states and undecided pairs
// are written to disk at phase/batch boundaries, and Options.ResumeFrom
// restores them so a re-run skips all settled work and converges to the
// same taxonomy. A finished run writes one last snapshot, after phase 3:
// its hierarchy, from which Adopt and ResumeFrom rebuild the taxonomy.
//
// Consistency: an unfinished snapshot is taken only at pool quiescence —
// under RoundRobin between batch barriers, under Async at an epoch edge
// (the pending-task counter at zero). In either case every claimed test
// (a cleared P bit: a pair in optimized mode, a directed entry in basic
// mode) has its outcome fully recorded in K or in the undecided list, so
// restoring the snapshot can never lose a claim's answer. For the same
// reason no plug-in memo is persisted: every answer it could hold is
// already in the bitsets, and a resumed run never asks for one again. Each
// quiescence point closes an epoch, and the snapshot records the epoch
// count it was cut at (monotonic across resumes; a finished snapshot
// records the last one before phase 3). A poisoned run (s.failed()) is
// never snapshotted: its workers may have claimed pairs whose outcome was
// abandoned mid-flight.
//
// File format (all integers little-endian):
//
//	[8]byte  magic "PAROWLCK"
//	uint32   version (currently 6)
//	uint64   ontology fingerprint (FNV-1a over names + axioms)
//	uint8    mode (1 = optimized, 0 = basic)
//	uint8    prepassed
//	uint8    phase (0 = random, 1 = group, 2 = finished)
//	uint64   epoch — the quiescence count the snapshot was cut at
//	uint32   n (concept count incl. ⊤)
//	9×int64  counters: every Stats counter but Steals, in the order of
//	         Stats.cells (sat, subs, pruned, preseeded, filter hits, timed
//	         out, recovered, node budget, branch budget)
//	body, by phase:
//	  random or group:
//	         n frames P, n frames K (bitset.Atomic binary frames,
//	         self-checksummed), then n bytes of satState values (0/1/2)
//	  finished:
//	         uint32 section length L, L bytes of hierarchy, uint32 CRC-32
//	         (IEEE) of those L bytes. The hierarchy is what phase 3 passes
//	         to taxonomy.Build, in the run's index space: for each concept
//	         i, class[i] − i as a signed varint (class[i] is −1 for an
//	         unsatisfiable concept, otherwise i's representative); then
//	         for each representative r, ascending, the number of its
//	         direct children as an unsigned varint and the children
//	         ascending, each as its difference from the one before (the
//	         first from −1)
//	uint32   undecided count; per entry: int32 sup (−1 = nil), int32 sub,
//	         uint16 reason length, reason bytes
//	uint32   CRC-32 (IEEE) of everything above
//
// A finished file holds no P, K or satState: P is empty, K's n² bits
// matter only through phase 3, which is a pure function of them, and an
// unsatisfiable concept's class says what satState would. So adopting a
// finished run is a decode, taxonomy.Build and the kernel compile, and the
// file is about a hundredth of an unfinished one's size. The query kernel
// is not stored either: it is a pure function of the taxonomy, so the
// reader compiles it. Every section is always present for its phase, so
// the decoder has no optional branches. Older versions are refused like
// any unknown version: v1 carried the kernel and epoch as trailing
// optional sections, v2 a tenth counter (told hits) and a plug-in cache
// section, v3 a kernel marker and the kernel's frame, v4 a basic-mode
// tested matrix behind a marker byte, and v5 a finished run's P and K. The
// trailing whole-file checksum catches truncation; the per-bitset frame
// and hierarchy checksums catch local corruption with a better error.

// checkpointMagic identifies parowl checkpoint files.
var checkpointMagic = [8]byte{'P', 'A', 'R', 'O', 'W', 'L', 'C', 'K'}

// checkpointVersion is bumped on any incompatible format change.
const checkpointVersion = 6

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

// snapshot is a checkpoint's content, not bound to a run: decoded from a
// file, or taken from a run to be encoded.
type snapshot struct {
	fingerprint uint64
	optimized   bool
	prepassed   bool
	// phase is PhaseRandom or PhaseGroup for an unfinished run, the phase
	// it was cut in, and PhaseHierarchy for a finished one.
	phase Phase
	n     int
	stats Stats // Steals is not persisted: zero in a decoded snapshot
	// epoch is the quiescence count the snapshot was cut at.
	epoch int64
	// An unfinished run's shared state.
	P, K     []*bitset.Atomic
	satState []int32
	// A finished run's hierarchy.
	hierarchy
	undecided []undecidedRef
}

// hierarchy is phase 3's result in the run's index space, the arguments
// of taxonomy.Build: class[i] is concept i's representative, or −1 when
// it is unsatisfiable, and children[r] lists the direct children of
// representative r in ascending order (nil elsewhere).
type hierarchy struct {
	class    []int
	children [][]int
}

// snapPhases maps a checkpoint's phase byte to the phase it was cut in.
var snapPhases = [...]Phase{PhaseRandom, PhaseGroup, PhaseHierarchy}

// finished reports whether the snapshot holds a finished run's hierarchy.
func (snap *snapshot) finished() bool { return snap.phase == PhaseHierarchy }

// undecidedRef is an Undecided entry with concepts replaced by their
// state indexes (−1 = nil Sup, the sat?-test case).
type undecidedRef struct {
	sup, sub int32
	reason   string
}

// snapshot captures the run for a checkpoint cut in phase at epoch. For
// an unfinished run (phase random or group) it holds the live P and K
// sets, so take and encode it only between barriers on a non-failed run;
// see the consistency note above. For a finished run (phase hierarchy)
// the caller sets its hierarchy.
func (s *state) snapshot(phase Phase, epoch int64) *snapshot {
	snap := &snapshot{
		fingerprint: FingerprintTBox(s.tbox),
		optimized:   s.optimized,
		prepassed:   s.prepassed,
		phase:       phase,
		n:           s.n,
		stats:       s.stats(),
		epoch:       epoch,
	}
	s.undecidedMu.Lock()
	for _, u := range s.undecided {
		sup := int32(-1)
		if u.Sup != nil {
			sup = int32(s.index[u.Sup])
		}
		snap.undecided = append(snap.undecided, undecidedRef{sup: sup, sub: int32(s.index[u.Sub]), reason: u.Reason})
	}
	s.undecidedMu.Unlock()
	if !snap.finished() {
		snap.P, snap.K = s.P, s.K
		snap.satState = make([]int32, s.n)
		for i := range snap.satState {
			snap.satState[i] = s.satState[i].Load()
		}
	}
	return snap
}

// encode serializes the snapshot in the format above.
func (snap *snapshot) encode() []byte {
	size := 64
	if !snap.finished() {
		size += 2 * snap.n * (snap.n/8 + 16)
	}
	b := make([]byte, 0, size)
	b = append(b, checkpointMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, checkpointVersion)
	b = binary.LittleEndian.AppendUint64(b, snap.fingerprint)
	b = append(b, byte(b2i(snap.optimized)), byte(b2i(snap.prepassed)), byte(slices.Index(snapPhases[:], snap.phase)))
	b = binary.LittleEndian.AppendUint64(b, uint64(snap.epoch))
	b = binary.LittleEndian.AppendUint32(b, uint32(snap.n))
	for _, c := range snap.stats.persisted() {
		b = binary.LittleEndian.AppendUint64(b, uint64(*c))
	}
	if snap.finished() {
		b = snap.appendHierarchy(b)
	} else {
		for _, p := range snap.P {
			b = p.AppendBinary(b)
		}
		for _, k := range snap.K {
			b = k.AppendBinary(b)
		}
		for _, v := range snap.satState {
			b = append(b, byte(v))
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(snap.undecided)))
	for _, u := range snap.undecided {
		b = binary.LittleEndian.AppendUint32(b, uint32(u.sup))
		b = binary.LittleEndian.AppendUint32(b, uint32(u.sub))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(u.reason)))
		b = append(b, u.reason...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// appendHierarchy appends the finished body's hierarchy section: its
// length, the varint-coded classes and child lists, and their CRC.
func (snap *snapshot) appendHierarchy(b []byte) []byte {
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	for i, c := range snap.class {
		b = binary.AppendVarint(b, int64(c-i))
	}
	for r, c := range snap.class {
		if c != r {
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(snap.children[r])))
		prev := -1
		for _, y := range snap.children[r] {
			b = binary.AppendUvarint(b, uint64(y-prev))
			prev = y
		}
	}
	sec := b[at+4:]
	binary.LittleEndian.PutUint32(b[at:], uint32(len(sec)))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(sec))
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
	if n < 0 || len(r.data) < n {
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
// It does not check the snapshot against any particular run; matches
// does that.
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
	if b := int(r.u8()); b < len(snapPhases) {
		snap.phase = snapPhases[b]
	} else {
		return nil, fmt.Errorf("%w: unknown phase byte %d", ErrBadSnapshot, b)
	}
	snap.epoch = int64(r.u64())
	snap.n = int(r.u32())
	for _, c := range snap.stats.persisted() {
		*c = int64(r.u64())
	}
	if r.err != nil {
		return nil, r.err
	}
	var err error
	if snap.finished() {
		err = snap.readHierarchy(r)
	} else {
		err = snap.readSets(r)
	}
	if err != nil {
		return nil, err
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

// readSets decodes an unfinished run's body: the P and K frames and the
// satState bytes.
func (snap *snapshot) readSets(r *snapReader) error {
	// n is validated against the byte budget before any n-sized
	// allocation: each concept contributes ≥ two bitset frames.
	if snap.n < 1 || snap.n > len(r.data)/16 {
		return fmt.Errorf("%w: implausible concept count %d", ErrBadSnapshot, snap.n)
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
		return err
	}
	if err := readAtomics(snap.K, "K"); err != nil {
		return err
	}
	snap.satState = make([]int32, snap.n)
	for i, v := range r.take(snap.n) {
		if v > 2 {
			return fmt.Errorf("%w: satState[%d] = %d", ErrBadSnapshot, i, v)
		}
		snap.satState[i] = int32(v)
	}
	return r.err
}

// readHierarchy decodes and validates a finished run's hierarchy section:
// every class is −1 or a representative (class[r] = r), ⊤ is
// satisfiable, and every child list is strictly ascending and holds only
// representatives other than its own. Build checks the rest: that the
// edges form a DAG every class is reachable in from ⊤.
func (snap *snapshot) readHierarchy(r *snapReader) error {
	sec := r.take(int(r.u32()))
	want := r.u32()
	if r.err != nil {
		return r.err
	}
	if got := crc32.ChecksumIEEE(sec); got != want {
		return fmt.Errorf("%w: hierarchy checksum mismatch (%08x != %08x)", ErrBadSnapshot, got, want)
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: hierarchy: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	// n is validated against the section's bytes before any n-sized
	// allocation: each concept's class takes at least one.
	n := snap.n
	if n < 1 || n > len(sec) {
		return bad("implausible concept count %d", n)
	}
	class := make([]int, n)
	for i := range class {
		d, k := binary.Varint(sec)
		if k <= 0 {
			return bad("class[%d] truncated", i)
		}
		sec = sec[k:]
		if d < int64(-1-i) || d >= int64(n-i) {
			return bad("class[%d] = %d + %d out of range", i, i, d)
		}
		class[i] = i + int(d)
	}
	for i, c := range class {
		if c >= 0 && class[c] != c {
			return bad("class[%d] = %d, which is not a representative", i, c)
		}
	}
	if class[n-1] < 0 {
		return bad("⊤ is unsatisfiable")
	}
	// Each child takes at least one of the bytes left, so they bound the
	// edges' backing array.
	children := make([][]int, n)
	edges := make([]int, 0, len(sec))
	for x, c := range class {
		if c != x {
			continue
		}
		count, k := binary.Uvarint(sec)
		if k <= 0 || count > uint64(len(sec)-k) {
			return bad("implausible child count at %d", x)
		}
		sec = sec[k:]
		from := len(edges)
		y := -1
		for range count {
			d, k := binary.Uvarint(sec)
			if k <= 0 {
				return bad("children of %d truncated", x)
			}
			sec = sec[k:]
			if d == 0 || d >= uint64(n-y) {
				return bad("children of %d not ascending within [0,%d)", x, n)
			}
			y += int(d)
			if class[y] != y || y == x {
				return bad("%d is a child of %d but not another representative", y, x)
			}
			edges = append(edges, y)
		}
		if count > 0 {
			children[x] = edges[from:len(edges):len(edges)]
		}
	}
	if len(sec) != 0 {
		return bad("%d trailing bytes", len(sec))
	}
	snap.hierarchy = hierarchy{class: class, children: children}
	return nil
}

// matches checks snap against the run it is bound to: the ontology t with
// its n concepts, classified in optimized or basic mode. The returned
// error wraps ErrBadSnapshot.
func (snap *snapshot) matches(t *dl.TBox, n int, optimized bool) error {
	if got := FingerprintTBox(t); got != snap.fingerprint {
		return fmt.Errorf("%w: ontology fingerprint %016x does not match snapshot %016x (different or modified ontology)",
			ErrBadSnapshot, got, snap.fingerprint)
	}
	if snap.n != n {
		return fmt.Errorf("%w: snapshot has %d concepts, run has %d", ErrBadSnapshot, snap.n, n)
	}
	if snap.optimized != optimized {
		return fmt.Errorf("%w: snapshot mode %v does not match run mode %v",
			ErrBadSnapshot, Mode(b2i(!snap.optimized)), Mode(b2i(!optimized)))
	}
	return nil
}

// undecidedOf returns the snapshot's undecided entries over the run's
// concepts.
func (snap *snapshot) undecidedOf(named []*dl.Concept) []Undecided {
	var out []Undecided
	for _, u := range snap.undecided {
		var sup *dl.Concept
		if u.sup >= 0 {
			sup = named[u.sup]
		}
		out = append(out, Undecided{Sup: sup, Sub: named[u.sub], Reason: u.reason})
	}
	return out
}

// restoreSnapshot binds an unfinished snapshot to this run and, on
// success, installs its shared state: its P and K sets become the run's,
// so a state from stateFor needs no fresh ones. Must run before any worker
// touches the state. The returned error always wraps ErrBadSnapshot; the
// state is untouched when it fires.
func (s *state) restoreSnapshot(snap *snapshot) error {
	if err := snap.matches(s.tbox, s.n, s.optimized); err != nil {
		return err
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
	s.undecided = snap.undecidedOf(s.named)
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

// checkpointer writes the snapshots of a classification run from its
// coordinator: periodic ones while it runs, and the finished one once
// phase 3 built its hierarchy. All methods run on the coordinating
// goroutine between barriers, never concurrently.
type checkpointer struct {
	path     string
	interval time.Duration
	last     time.Time
	err      error // first write failure, reported via Result.CheckpointError
}

// due reports whether a periodic write would pass the interval gate.
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

// write snapshots an unfinished run cut in phase if the interval has
// elapsed (an interval ≤ 0 writes at every boundary). epoch is the
// quiescence count the caller is at. Failed runs are never snapshotted.
func (c *checkpointer) write(s *state, phase Phase, epoch int64) {
	if c.due() && !s.failed() {
		c.save(s.snapshot(phase, epoch))
	}
}

// finish writes the final snapshot of a finished run, whatever the
// interval: its hierarchy h, tagged with the last epoch before phase 3.
func (c *checkpointer) finish(s *state, h hierarchy, epoch int64) {
	if c != nil {
		snap := s.snapshot(PhaseHierarchy, epoch)
		snap.hierarchy = h
		c.save(snap)
	}
}

// save encodes snap and writes it to the checkpoint file (nil receiver
// safe).
func (c *checkpointer) save(snap *snapshot) {
	if c == nil {
		return
	}
	if err := writeFileAtomic(c.path, snap.encode()); err != nil {
		if c.err == nil {
			c.err = fmt.Errorf("core: checkpoint write: %w", err)
		}
		return
	}
	c.last = time.Now()
}

// firstErr returns the first write failure (nil receiver safe).
func (c *checkpointer) firstErr() error {
	if c == nil {
		return nil
	}
	return c.err
}
