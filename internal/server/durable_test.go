package server

// Tests for the durable registry (PR 9): manifest persistence and
// restart re-adoption, per-entry corruption degradation, memory-budget
// eviction with demand reload, classify retry with backoff, DELETE, the
// readiness probe, and query coalescing.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parowl"
)

// deadReasoner fails every call: a server wired with it can serve only
// state that was re-adopted without any reclassification.
type deadReasoner struct{}

var errDeadReasoner = errors.New("reasoner invoked after re-adoption (reclassification is forbidden)")

func (deadReasoner) Sat(context.Context, *parowl.Concept) (bool, error) {
	return false, errDeadReasoner
}
func (deadReasoner) Subs(context.Context, *parowl.Concept, *parowl.Concept) (bool, error) {
	return false, errDeadReasoner
}

// waitReady polls /readyz until it answers 200.
func waitReady(t *testing.T, ts *httptest.Server) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _, _ := get(t, ts.URL+"/readyz")
		if code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never turned 200")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartReadopt restarts the daemon over a populated checkpoint dir
// and checks every classified ontology comes back byte-identical with
// ZERO reclassification: the second server's reasoner fails every call,
// so any subsumption test would fail the adoption visibly.
func TestRestartReadopt(t *testing.T) {
	t.Parallel()
	ckdir := t.TempDir()
	texts := map[string]string{
		"alpha": genOBO(t, 61, 60),
		"beta":  genOBO(t, 62, 80),
	}

	s1, ts1 := newTestServer(t, Config{CheckpointDir: ckdir})
	for id, text := range texts {
		if code, body := submit(t, ts1, id, "", text); code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d: %s", id, code, body)
		}
	}
	// Resubmit alpha so its generation advances past 1: the restart must
	// restore the generation, not restart the sequence.
	waitStatus(t, ts1, "alpha", StatusClassified)
	waitStatus(t, ts1, "beta", StatusClassified)
	if code, body := submit(t, ts1, "alpha", "", texts["alpha"]); code != http.StatusAccepted {
		t.Fatalf("resubmit alpha: HTTP %d: %s", code, body)
	}
	deadline := time.Now().Add(60 * time.Second)
	for waitStatus(t, ts1, "alpha", StatusClassified).Generation != 2 {
		if time.Now().After(deadline) {
			t.Fatal("alpha never reached generation 2")
		}
		time.Sleep(5 * time.Millisecond)
	}

	type expect struct {
		taxonomy string
		query    string
		spec     string
		gen      uint64
		stats    parowl.Stats
	}
	want := make(map[string]expect)
	for id, text := range texts {
		info := status(t, ts1, id)
		name := firstID(t, text)
		spec := "ancestors:" + name + ";descendants:" + name + ";depth:" + name
		_, _, tax := get(t, ts1.URL+"/ontologies/"+id+"/taxonomy")
		_, _, q := get(t, queryURL(ts1, id, spec))
		want[id] = expect{taxonomy: tax, query: q, spec: spec, gen: info.Generation, stats: *info.Stats}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()

	// Second server: same checkpoint dir, reasoner that fails every call.
	eng := plainEngine(func(tb *parowl.TBox) parowl.Reasoner {
		return deadReasoner{}
	})
	_, ts2 := newTestServer(t, Config{CheckpointDir: ckdir, Engine: eng})
	waitReady(t, ts2)

	for id := range texts {
		info := waitStatus(t, ts2, id, StatusClassified)
		if !info.Readopted {
			t.Errorf("%s: readopted = false, want true", id)
		}
		if info.Generation != want[id].gen {
			t.Errorf("%s: generation = %d, want %d (restored, not restarted)", id, info.Generation, want[id].gen)
		}
		if info.Stats == nil || info.Stats.SubsTests != want[id].stats.SubsTests {
			t.Errorf("%s: restored stats %+v differ from pre-restart %+v", id, info.Stats, want[id].stats)
		}
		code, hdr, tax := get(t, ts2.URL+"/ontologies/"+id+"/taxonomy")
		if code != http.StatusOK {
			t.Fatalf("%s taxonomy after restart: HTTP %d", id, code)
		}
		if tax != want[id].taxonomy {
			t.Errorf("%s: post-restart taxonomy differs (%d vs %d bytes)", id, len(tax), len(want[id].taxonomy))
		}
		if got := hdr.Get("X-Parowl-Generation"); got != fmt.Sprint(want[id].gen) {
			t.Errorf("%s: post-restart generation header = %q, want %d", id, got, want[id].gen)
		}
		if _, _, q := get(t, queryURL(ts2, id, want[id].spec)); q != want[id].query {
			t.Errorf("%s: post-restart query answers differ:\n got %q\nwant %q", id, q, want[id].query)
		}
	}
}

// TestReadoptRefusesOldCheckpoint: classified entries whose checkpoints
// carry an older format version (the version field rewritten to 3, 4 or
// 5, one per entry, the CRC resealed, so only the version check can
// refuse them) come back interrupted at boot instead of serving or
// failing the boot, and a resubmit reclassifies each to the same
// taxonomy.
func TestReadoptRefusesOldCheckpoint(t *testing.T) {
	t.Parallel()
	ckdir := t.TempDir()
	text := genOBO(t, 63, 80)
	versions := map[string]uint32{"v3": 3, "v4": 4, "v5": 5}
	s1, ts1 := newTestServer(t, Config{CheckpointDir: ckdir})
	for id := range versions {
		if code, body := submit(t, ts1, id, "", text); code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d: %s", id, code, body)
		}
	}
	want := map[string]string{}
	for id := range versions {
		waitStatus(t, ts1, id, StatusClassified)
		_, _, want[id] = get(t, ts1.URL+"/ontologies/"+id+"/taxonomy")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()

	for id, v := range versions {
		ck := filepath.Join(ckdir, id+".ck")
		data, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(data[8:], v) // the version follows the 8-byte magic
		body := data[:len(data)-4]
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
		if err := os.WriteFile(ck, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, ts2 := newTestServer(t, Config{CheckpointDir: ckdir})
	waitReady(t, ts2)
	for id, v := range versions {
		info := waitStatus(t, ts2, id, StatusInterrupted)
		if refusal := fmt.Sprintf("unsupported version %d", v); !strings.Contains(info.Error, refusal) {
			t.Errorf("%s: interrupted entry's error = %q, want the version refusal", id, info.Error)
		}
		if code, body := submit(t, ts2, id, "", text); code != http.StatusAccepted {
			t.Fatalf("resubmit %s: HTTP %d: %s", id, code, body)
		}
	}
	for id := range versions {
		waitStatus(t, ts2, id, StatusClassified)
		if _, _, got := get(t, ts2.URL+"/ontologies/"+id+"/taxonomy"); got != want[id] {
			t.Errorf("%s: reclassified taxonomy differs (%d vs %d bytes)", id, len(got), len(want[id]))
		}
	}
}

// TestManifestCorruption flips every byte of a real manifest, one at a
// time, and checks loadManifest never panics and never takes down more
// state than the corrupted region: either the whole file is rejected
// (boot continues with an empty registry) or damage degrades per entry.
func TestManifestCorruption(t *testing.T) {
	t.Parallel()
	mkEntry := func(id string) manifestEntry {
		me := manifestEntry{
			ID: id, Name: id, Format: "obo", Fingerprint: "00000000deadbeef",
			Status: StatusClassified, Generation: 3,
			Checkpoint: id + ".ck", Source: id + ".src",
			Concepts: 10, Classes: 12,
		}
		me.CRC = me.checksum()
		return me
	}
	mf := manifestFile{Version: manifestVersion, Entries: []manifestEntry{mkEntry("aaa"), mkEntry("bbb")}}
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), manifestName)

	// Pristine manifest round-trips both entries classified.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := loadManifest(path)
	if err != nil || len(entries) != 2 || entries[0].Status != StatusClassified || entries[1].Status != StatusClassified {
		t.Fatalf("pristine manifest: entries=%v err=%v", entries, err)
	}

	aEnd := strings.Index(string(data), `"bbb"`) // bytes before this belong to entry aaa (or the envelope)
	for i := range data {
		corrupted := append([]byte(nil), data...)
		corrupted[i] ^= 0x40
		if err := os.WriteFile(path, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := loadManifest(path)
		if err != nil {
			continue // whole file rejected: the daemon boots empty, not broken
		}
		if len(entries) > 2 {
			t.Fatalf("byte %d: corruption grew the registry: %v", i, entries)
		}
		// A flip confined to one entry's region must leave the other
		// entry fully intact, and damage never yields anything beyond a
		// per-entry degradation to interrupted.
		for _, me := range entries {
			if me.ID == "bbb" && i < aEnd && me.Status != StatusClassified {
				t.Fatalf("byte %d (inside aaa): entry bbb degraded to %s", i, me.Status)
			}
			if me.Status == StatusClassified && me.CRC != me.checksum() {
				t.Fatalf("byte %d: entry %s kept classified despite a CRC mismatch", i, me.ID)
			}
			if me.Status != StatusClassified && me.Status != StatusInterrupted {
				t.Fatalf("byte %d: entry %s in unexpected status %s", i, me.ID, me.Status)
			}
		}
	}

	// An entry written when the manifest still recorded a standalone
	// kernel file carries a "kernel" key inside its checksummed encoding.
	// The key is no longer part of an entry, so the entry fails its CRC
	// and degrades to interrupted.
	type kernelKeyEntry struct {
		manifestEntry
		Kernel string `json:"kernel"`
	}
	old := kernelKeyEntry{manifestEntry: mkEntry("old"), Kernel: "old.kf"}
	old.CRC = 0
	oldJSON, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	old.CRC = crc32.ChecksumIEEE(oldJSON)
	data, err = json.Marshal(struct {
		Version int              `json:"version"`
		Entries []kernelKeyEntry `json:"entries"`
	}{manifestVersion, []kernelKeyEntry{old}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err = loadManifest(path)
	if err != nil || len(entries) != 1 || entries[0].Status != StatusInterrupted {
		t.Fatalf("entry with a kernel key: entries=%v err=%v, want one interrupted entry", entries, err)
	}

	// A manifest of pure garbage must not fail server boot.
	ckdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(ckdir, manifestName), []byte("\x00not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{CheckpointDir: ckdir})
	waitReady(t, ts)
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after garbage manifest: HTTP %d", code)
	}
}

// TestEvictionReload classifies more ontologies than the resident budget
// holds and checks the daemon stays under budget, evicted entries still
// list as classified, and their next query transparently reloads with
// byte-identical answers.
func TestEvictionReload(t *testing.T) {
	t.Parallel()
	ckdir := t.TempDir()
	texts := map[string]string{
		"e1": genOBO(t, 71, 60),
		"e2": genOBO(t, 72, 60),
		"e3": genOBO(t, 73, 60),
	}

	// Pre-pass: learn one ontology's footprint so the budget below holds
	// roughly one resident entry out of three.
	pre, tsPre := newTestServer(t, Config{CheckpointDir: t.TempDir()})
	if code, _ := submit(t, tsPre, "probe", "", texts["e1"]); code != http.StatusAccepted {
		t.Fatal("probe submit")
	}
	probe := waitStatus(t, tsPre, "probe", StatusClassified)
	if probe.ResidentBytes <= 0 {
		t.Fatalf("probe resident bytes = %d, want > 0", probe.ResidentBytes)
	}
	ctxPre, cancelPre := context.WithTimeout(context.Background(), 30*time.Second)
	pre.Drain(ctxPre)
	cancelPre()
	tsPre.Close()

	budget := probe.ResidentBytes * 3 / 2
	s, ts := newTestServer(t, Config{CheckpointDir: ckdir, MaxResidentBytes: budget, ClassifyJobs: 1})
	answers := make(map[string]string)
	specs := make(map[string]string)
	for _, id := range []string{"e1", "e2", "e3"} {
		if code, body := submit(t, ts, id, "", texts[id]); code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d: %s", id, code, body)
		}
		waitStatus(t, ts, id, StatusClassified)
		name := firstID(t, texts[id])
		specs[id] = "ancestors:" + name + ";depth:" + name
		code, _, body := get(t, queryURL(ts, id, specs[id]))
		if code != http.StatusOK {
			t.Fatalf("query %s: HTTP %d: %s", id, code, body)
		}
		answers[id] = body
	}

	if got := s.residentBytes(); got > budget {
		t.Errorf("resident bytes %d exceed budget %d after classifications", got, budget)
	}
	if s.evictions.Load() == 0 {
		t.Fatal("no evictions despite a budget below the corpus footprint")
	}
	var evicted, resident []string
	for _, id := range []string{"e1", "e2", "e3"} {
		info := status(t, ts, id)
		if info.Status != StatusClassified {
			t.Fatalf("%s: status %s after eviction, want classified", id, info.Status)
		}
		if info.Resident {
			resident = append(resident, id)
		} else {
			evicted = append(evicted, id)
		}
	}
	if len(evicted) == 0 {
		t.Fatal("no entry reports resident=false")
	}

	// Queries against evicted entries demand-reload and answer
	// byte-identically; the budget still holds afterwards.
	for _, id := range evicted {
		code, _, body := get(t, queryURL(ts, id, specs[id]))
		if code != http.StatusOK {
			t.Fatalf("query evicted %s: HTTP %d: %s", id, code, body)
		}
		if body != answers[id] {
			t.Errorf("%s: post-reload answers differ:\n got %q\nwant %q", id, body, answers[id])
		}
		if info := status(t, ts, id); !info.Resident || info.Reloads == 0 {
			t.Errorf("%s after reload: resident=%v reloads=%d, want warm with reloads > 0", id, info.Resident, info.Reloads)
		}
	}
	if got := s.residentBytes(); got > budget {
		t.Errorf("resident bytes %d exceed budget %d after reloads", got, budget)
	}

	// Health surfaces the accounting.
	_, _, healthBody := get(t, ts.URL+"/healthz")
	var health struct {
		ResidentBytes    int64 `json:"resident_bytes"`
		MaxResidentBytes int64 `json:"max_resident_bytes"`
		Evictions        int64 `json:"evictions"`
		Reloads          int64 `json:"reloads"`
	}
	if err := json.Unmarshal([]byte(healthBody), &health); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if health.MaxResidentBytes != budget || health.Evictions == 0 || health.Reloads == 0 {
		t.Errorf("healthz accounting looks wrong: %s", healthBody)
	}
}

// flakyReasoner fails its first failN calls with a chaos-marked error,
// then behaves normally.
type flakyReasoner struct {
	inner parowl.Reasoner
	calls *atomic.Int64
	failN int64
}

func (f *flakyReasoner) err() error {
	if f.calls.Add(1) <= f.failN {
		return fmt.Errorf("%w: flaky test fault", parowl.ErrChaosFault)
	}
	return nil
}

func (f *flakyReasoner) Sat(ctx context.Context, c *parowl.Concept) (bool, error) {
	if err := f.err(); err != nil {
		return false, err
	}
	return f.inner.Sat(ctx, c)
}

func (f *flakyReasoner) Subs(ctx context.Context, sup, sub *parowl.Concept) (bool, error) {
	if err := f.err(); err != nil {
		return false, err
	}
	return f.inner.Subs(ctx, sup, sub)
}

// TestClassifyRetryBackoff: a transiently-failing job is requeued with
// backoff and eventually classifies; attempts surface in the status; the
// previous serving generation keeps answering between attempts.
func TestClassifyRetryBackoff(t *testing.T) {
	t.Parallel()
	text := genOBO(t, 81, 50)
	var calls atomic.Int64
	eng := parowl.NewEngine(
		parowl.WithOptions(parowl.Options{Workers: 1}),
		parowl.WithReasoner(func(tb *parowl.TBox) parowl.Reasoner {
			return &flakyReasoner{inner: parowl.NewAutoReasoner(tb), calls: &calls, failN: 1}
		}))
	_, ts := newTestServer(t, Config{
		Engine: eng, RetryBudget: 3,
		RetryBaseDelay: 50 * time.Millisecond, RetryMaxDelay: time.Second,
	})
	if code, body := submit(t, ts, "flaky", "", text); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	// The first attempt fails on its first reasoner call, so during the
	// backoff window the entry is queued with attempts=1 and a schedule.
	deadline := time.Now().Add(30 * time.Second)
	sawBackoff := false
	for !sawBackoff {
		info := status(t, ts, "flaky")
		if info.Status == StatusQueued && info.Attempts == 1 {
			sawBackoff = true
			if info.NextRetryAt == nil || !info.NextRetryAt.After(time.Now().Add(-time.Second)) {
				t.Errorf("backoff status without a sane next_retry_at: %+v", info)
			}
			if !strings.Contains(info.Error, "chaos") {
				t.Errorf("backoff status should carry the transient error, got %q", info.Error)
			}
		}
		if info.Status == StatusClassified {
			t.Fatal("classification succeeded before the backoff window was observable")
		}
		if info.Status == StatusFailed {
			t.Fatalf("transient failure was made permanent: %s", info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed the backoff window: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
	info := waitStatus(t, ts, "flaky", StatusClassified)
	if info.Attempts != 0 || info.NextRetryAt != nil {
		t.Errorf("success should clear retry state, got attempts=%d next=%v", info.Attempts, info.NextRetryAt)
	}

	// A permanently chaos-failing job exhausts the budget and fails with
	// the attempt count preserved.
	var calls2 atomic.Int64
	eng2 := plainEngine(func(tb *parowl.TBox) parowl.Reasoner {
		return &flakyReasoner{inner: parowl.NewAutoReasoner(tb), calls: &calls2, failN: 1 << 40}
	})
	_, ts2 := newTestServer(t, Config{
		Engine: eng2, RetryBudget: 2,
		RetryBaseDelay: time.Millisecond, RetryMaxDelay: 4 * time.Millisecond,
	})
	if code, _ := submit(t, ts2, "doomed", "", text); code != http.StatusAccepted {
		t.Fatal("submit doomed")
	}
	info = waitStatus(t, ts2, "doomed", StatusFailed)
	if info.Attempts != 2 {
		t.Errorf("failed after attempts=%d, want the full budget of 2", info.Attempts)
	}

	// A non-transient failure is not retried at all.
	eng3 := plainEngine(func(tb *parowl.TBox) parowl.Reasoner {
		return deadReasoner{}
	})
	_, ts3 := newTestServer(t, Config{Engine: eng3, RetryBudget: 3, RetryBaseDelay: time.Millisecond})
	if code, _ := submit(t, ts3, "dead", "", text); code != http.StatusAccepted {
		t.Fatal("submit dead")
	}
	info = waitStatus(t, ts3, "dead", StatusFailed)
	if info.Attempts != 0 {
		t.Errorf("non-transient failure consumed %d retry attempts, want 0", info.Attempts)
	}
}

// TestDeleteOntology removes a classified entry and checks its on-disk
// artifacts and manifest record go with it, while in-flight entries are
// protected by 409.
func TestDeleteOntology(t *testing.T) {
	t.Parallel()
	ckdir := t.TempDir()
	text := genOBO(t, 91, 50)
	_, ts := newTestServer(t, Config{CheckpointDir: ckdir})
	if code, _ := submit(t, ts, "doomed", "", text); code != http.StatusAccepted {
		t.Fatal("submit")
	}
	waitStatus(t, ts, "doomed", StatusClassified)

	// The checkpoint is the only on-disk form of the classification: the
	// dir settles on exactly the checkpoint, the source and the manifest
	// (a manifest rewrite may still hold its temp file for a moment).
	want := "doomed.ck doomed.src " + manifestName
	var got string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		des, err := os.ReadDir(ckdir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(des))
		for i, de := range des {
			names[i] = de.Name()
		}
		if got = strings.Join(names, " "); got == want || time.Now().After(deadline) {
			break
		}
	}
	if got != want {
		t.Fatalf("checkpoint dir before delete holds %q, want %q", got, want)
	}

	doDelete := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/ontologies/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := doDelete("doomed"); code != http.StatusNoContent {
		t.Fatalf("DELETE: HTTP %d, want 204", code)
	}
	if code, _, _ := get(t, ts.URL+"/ontologies/doomed"); code != http.StatusNotFound {
		t.Errorf("status after delete: HTTP %d, want 404", code)
	}
	for _, suffix := range []string{".ck", ".src"} {
		if _, err := os.Stat(filepath.Join(ckdir, "doomed"+suffix)); !os.IsNotExist(err) {
			t.Errorf("artifact doomed%s survived the delete (err=%v)", suffix, err)
		}
	}
	entries, err := loadManifest(filepath.Join(ckdir, manifestName))
	if err != nil {
		t.Fatalf("manifest after delete: %v", err)
	}
	for _, me := range entries {
		if me.ID == "doomed" {
			t.Error("manifest still records the deleted entry")
		}
	}
	if code := doDelete("never-was"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown: HTTP %d, want 404", code)
	}

	// An in-flight entry cannot be deleted.
	gate := newGate(nil)
	eng := plainEngine(func(tb *parowl.TBox) parowl.Reasoner {
		gate.inner = parowl.NewAutoReasoner(tb)
		return gate
	})
	_, ts2 := newTestServer(t, Config{Engine: eng})
	if code, _ := submit(t, ts2, "busy", "", text); code != http.StatusAccepted {
		t.Fatal("submit busy")
	}
	<-gate.entered
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/ontologies/busy", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE in-flight: HTTP %d, want 409", resp.StatusCode)
	}
	close(gate.gate)
	waitStatus(t, ts2, "busy", StatusClassified)
}

// TestReadyzDraining: liveness stays 200 while readiness flips to 503 on
// drain.
func TestReadyzDraining(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{})
	waitReady(t, ts)
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, `"draining":true`) {
		t.Errorf("readyz while draining: HTTP %d body %s, want 503 + draining", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz should stay 200 while draining")
	}
}

// TestQueryCoalescing parks the first evaluation of a spec and fires a
// herd of identical requests: exactly one evaluation runs, everyone gets
// the same bytes.
func TestQueryCoalescing(t *testing.T) {
	t.Parallel()
	text := genOBO(t, 95, 60)
	s, ts := newTestServer(t, Config{})
	if code, _ := submit(t, ts, "coal", "", text); code != http.StatusAccepted {
		t.Fatal("submit")
	}
	waitStatus(t, ts, "coal", StatusClassified)
	name := firstID(t, text)
	spec := "ancestors:" + name + ";descendants:" + name

	var evals atomic.Int64
	release := make(chan struct{})
	s.onQueryEval = func(string) {
		if evals.Add(1) == 1 {
			<-release
		}
	}

	const herd = 6
	var wg sync.WaitGroup
	bodies := make([]string, herd)
	codes := make([]int, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(queryURL(ts, "coal", spec))
			if err != nil {
				codes[i] = -1
				return
			}
			b := new(strings.Builder)
			buf := make([]byte, 4096)
			for {
				n, err := resp.Body.Read(buf)
				b.Write(buf[:n])
				if err != nil {
					break
				}
			}
			resp.Body.Close()
			codes[i], bodies[i] = resp.StatusCode, b.String()
		}(i)
	}
	// Let the herd pile up behind the parked leader, then release it.
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := 0; i < herd; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, codes[i])
		}
		if bodies[i] != bodies[0] {
			t.Errorf("request %d answered differently", i)
		}
	}
	if got := evals.Load(); got >= herd {
		t.Errorf("%d evaluations for %d identical requests; coalescing did nothing", got, herd)
	}
	if s.coalesced.Load() == 0 {
		t.Error("coalesced counter never incremented")
	}
}
