package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"parowl"
)

// The registry manifest makes the daemon's tenant table durable: a
// versioned, per-entry-checksummed registry.json under the checkpoint
// dir, atomically rewritten (same-directory temp + rename, the PR 4
// checkpoint discipline) on every lifecycle transition. On startup the
// daemon re-adopts `classified` entries from their checkpoints instead
// of reclassifying; anything unusable degrades PER ENTRY — a corrupt
// manifest, a checksum-failing entry, or a fingerprint mismatch costs at
// worst one entry's warm state (it lists as interrupted and reclassifies
// on resubmission), never a failed boot.

// manifestName is the registry manifest file under the checkpoint dir.
const manifestName = "registry.json"

// manifestVersion is bumped on any incompatible manifest schema change.
const manifestVersion = 1

// errManifestVersion reports a manifest written by an incompatible
// daemon; the boot proceeds with an empty registry.
var errManifestVersion = errors.New("server: unsupported manifest version")

// manifestEntry is the durable record of one registry entry. CRC is a
// CRC-32 (IEEE) over the entry's canonical JSON encoding with CRC set to
// zero, so any in-place corruption of an entry is detected individually
// and degrades only that entry.
type manifestEntry struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Format      string `json:"format"`
	Fingerprint string `json:"fingerprint"` // %016x of the source fingerprint
	Status      Status `json:"status"`
	Error       string `json:"error,omitempty"`
	Generation  uint64 `json:"generation"`
	Scheduling  string `json:"scheduling,omitempty"`
	Checkpoint  string `json:"checkpoint,omitempty"` // base name under the checkpoint dir
	Source      string `json:"source,omitempty"`     // base name of the persisted source document
	Concepts    int    `json:"concepts,omitempty"`
	Classes     int    `json:"classes,omitempty"`
	Undecided   int    `json:"undecided,omitempty"`
	CRC         uint32 `json:"crc"`
}

// manifestFile is the on-disk shape of registry.json.
type manifestFile struct {
	Version int             `json:"version"`
	Entries []manifestEntry `json:"entries"`
}

// checksum computes the entry's canonical CRC (the CRC field zeroed).
func (m manifestEntry) checksum() uint32 {
	m.CRC = 0
	data, err := json.Marshal(m)
	if err != nil {
		// Marshal of a plain struct cannot fail; keep the signature total.
		return 0
	}
	return crc32.ChecksumIEEE(data)
}

// loadManifest reads and validates the manifest. Failure modes, from the
// outside in:
//   - missing file: (nil, nil) — first boot.
//   - unreadable/unparseable file or wrong version: (nil, err) — the
//     caller logs and boots with an empty registry.
//   - entry with a checksum mismatch: degraded in place to
//     StatusInterrupted when its ID still looks usable (the checkpoint
//     and source paths are derived from the ID, so a readable ID is
//     enough to reclassify later); dropped entirely otherwise.
//
// No input makes loadManifest panic or the boot fail.
func loadManifest(path string) ([]manifestEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var mf manifestFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("server: manifest unparseable: %w", err)
	}
	if mf.Version != manifestVersion {
		return nil, fmt.Errorf("%w %d (want %d)", errManifestVersion, mf.Version, manifestVersion)
	}
	seen := make(map[string]bool, len(mf.Entries))
	out := make([]manifestEntry, 0, len(mf.Entries))
	for _, me := range mf.Entries {
		if me.CRC != me.checksum() {
			if !idPattern.MatchString(me.ID) || seen[me.ID] {
				continue // nothing trustworthy left to degrade around
			}
			me = manifestEntry{
				ID:     me.ID,
				Name:   me.ID,
				Status: StatusInterrupted,
				Error:  "manifest entry checksum mismatch; resubmit to reclassify",
			}
		}
		if me.ID == "" || seen[me.ID] {
			continue
		}
		seen[me.ID] = true
		out = append(out, me)
	}
	return out, nil
}

// writeFileAtomic writes data via a same-directory temp file and rename
// (the internal/core checkpoint discipline): a crash mid-write leaves
// either the old manifest or the new one, never a torn file.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
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

// manifestEntryLocked captures the entry's durable state; e.mu must be
// held. Entries that never got past admission (empty status) and
// transient in-flight states are recorded as what a restart would find:
// an interrupted classification.
func (e *entry) manifestEntry() manifestEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	status := e.status
	errMsg := e.errMsg
	if e.inFlightLocked() {
		// A manifest can be read only by a NEXT process, and for that
		// process any in-flight work was interrupted by definition.
		status = StatusInterrupted
		errMsg = "daemon exited before classification finished; resubmit to resume from checkpoint"
	}
	me := manifestEntry{
		ID:          e.id,
		Name:        e.name,
		Format:      e.format.String(),
		Fingerprint: fmt.Sprintf("%016x", e.fingerprint),
		Status:      status,
		Error:       errMsg,
		Generation:  e.generation,
		Scheduling:  e.scheduling,
		Checkpoint:  filepath.Base(e.checkpoint),
		Source:      filepath.Base(e.srcPath),
		Concepts:    e.concepts,
		Classes:     e.classes,
		Undecided:   e.undecided,
	}
	if e.checkpoint == "" {
		me.Checkpoint = ""
	}
	if e.srcPath == "" {
		me.Source = ""
	}
	me.CRC = me.checksum()
	return me
}

// persist rewrites the registry manifest from the live registry. It is
// called on every lifecycle transition; failures are logged, never
// propagated — durability degrades, serving does not.
func (s *Server) persist() {
	if s.cfg.CheckpointDir == "" {
		return
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	mf := manifestFile{Version: manifestVersion}
	for _, e := range s.reg.all() {
		me := e.manifestEntry()
		if me.Status == "" {
			continue // never admitted; nothing durable to record
		}
		mf.Entries = append(mf.Entries, me)
	}
	data, err := json.MarshalIndent(mf, "", "  ")
	if err == nil {
		err = writeFileAtomic(filepath.Join(s.cfg.CheckpointDir, manifestName), append(data, '\n'))
	}
	if err != nil {
		s.cfg.Logf("owld: manifest write failed (registry stays serving, durability degraded): %v", err)
	}
}

// readoptAll replays the manifest at boot: classified entries are
// re-adopted from their checkpoints with zero reclassification, every
// other recorded state is restored as-is (in-flight states were already
// degraded to interrupted at write time). Runs once on its own
// goroutine; /readyz reports 503 until it finishes.
func (s *Server) readoptAll(entries []manifestEntry) {
	defer func() {
		s.ready.Store(true)
		s.persist()
	}()
	for _, me := range entries {
		if s.draining.Load() {
			return
		}
		s.readoptOne(me)
	}
}

// readoptOne restores one manifest entry. Any failure — unreadable
// source, fingerprint mismatch, missing/corrupt/incomplete checkpoint —
// degrades this entry to interrupted and keeps booting.
func (s *Server) readoptOne(me manifestEntry) {
	e := s.reg.getOrCreate(me.ID)
	format, err := parowl.ParseFormat(me.Format)
	if err != nil {
		format = parowl.FormatOBO
	}
	var fp uint64
	fmt.Sscanf(me.Fingerprint, "%016x", &fp)

	e.mu.Lock()
	if e.status != "" {
		// A live submission raced ahead of the replay; its state wins.
		e.mu.Unlock()
		return
	}
	e.name = me.Name
	e.format = format
	e.fingerprint = fp
	e.generation = me.Generation
	e.scheduling = me.Scheduling
	e.concepts = me.Concepts
	e.classes = me.Classes
	e.undecided = me.Undecided
	e.errMsg = me.Error
	if me.Checkpoint != "" {
		e.checkpoint = filepath.Join(s.cfg.CheckpointDir, me.Checkpoint)
	}
	if me.Source != "" {
		e.srcPath = filepath.Join(s.cfg.CheckpointDir, me.Source)
	}
	if me.Status != StatusClassified {
		e.status = me.Status
		e.mu.Unlock()
		return
	}
	// Queries and duplicate submissions observe "adopting" (409 + retry)
	// until the warm state is back.
	e.status = StatusAdopting
	ckPath, srcPath := e.checkpoint, e.srcPath
	e.mu.Unlock()

	start := time.Now()
	ont, res, snap, err := s.adoptFromDisk(srcPath, ckPath, me.Name, format, fp)
	if err != nil {
		e.mu.Lock()
		e.status = StatusInterrupted
		e.errMsg = fmt.Sprintf("restart re-adoption failed: %v; resubmit to reclassify", err)
		e.mu.Unlock()
		s.cfg.Logf("owld: readopt %s: %v (degraded to interrupted)", me.ID, err)
		return
	}
	e.markAdopted(ont, res, me.Generation, snap.MemoryFootprint(), time.Since(start))
	s.maybeEvict()
	s.cfg.Logf("owld: readopt %s: re-adopted generation %d from checkpoint in %v (%d classes, 0 reclassification tests)",
		me.ID, me.Generation, time.Since(start).Round(time.Millisecond), res.Taxonomy.NumClasses())
}

// adoptFromDisk is the one path by which a classified entry comes back
// without reclassifying, at boot and after eviction alike: re-parse the
// persisted source, check it against the recorded fingerprint, and adopt
// the completed checkpoint. The error names the step that failed.
func (s *Server) adoptFromDisk(srcPath, ckPath, name string, format parowl.Format, fp uint64) (*parowl.Ontology, *parowl.Result, *parowl.Snapshot, error) {
	if srcPath == "" || ckPath == "" {
		return nil, nil, nil, errors.New("no persisted checkpoint or source path")
	}
	src, err := os.Open(srcPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("source: %w", err)
	}
	ont, err := s.cfg.Engine.Load(src, name, format)
	src.Close()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("source parse: %w", err)
	}
	if got := ont.Fingerprint(); got != fp {
		return nil, nil, nil, fmt.Errorf("fingerprint: source fingerprint %016x does not match registry %016x", got, fp)
	}
	res, err := ont.Adopt(context.Background(), ckPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	snap, err := ont.Snapshot()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	return ont, res, snap, nil
}
