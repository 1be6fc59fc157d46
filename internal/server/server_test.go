package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"parowl"
)

// genOBO deterministically generates a miniature Table IV ontology and
// returns its OBO text.
func genOBO(t *testing.T, seed int64, scale int) string {
	t.Helper()
	p, ok := parowl.ProfileByName("WBbt.obo")
	if !ok {
		t.Fatal("profile WBbt.obo missing")
	}
	tb, err := parowl.Generate(parowl.MiniProfile(p, scale), seed)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var buf bytes.Buffer
	if err := parowl.Write(&buf, tb, parowl.FormatOBO); err != nil {
		t.Fatalf("write obo: %v", err)
	}
	return buf.String()
}

// refSnapshot classifies text with a stock engine, for expected answers.
func refSnapshot(t *testing.T, text string) *parowl.Snapshot {
	t.Helper()
	ont, err := parowl.NewEngine().Load(strings.NewReader(text), "ref", parowl.FormatOBO)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := ont.Classify(context.Background()); err != nil {
		t.Fatalf("classify: %v", err)
	}
	snap, err := ont.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

// pickNames returns n concept names from the snapshot's taxonomy,
// skipping ⊤ and ⊥, spread across the node list.
func pickNames(t *testing.T, snap *parowl.Snapshot, n int) []string {
	t.Helper()
	nodes := snap.Taxonomy().Nodes()
	var names []string
	for i := 1; i < len(nodes)-1 && len(names) < n; i += 1 + len(nodes)/(n+1) {
		names = append(names, nodes[i].Canonical().Name)
	}
	if len(names) < n {
		t.Fatalf("ontology too small: got %d names, want %d", len(names), n)
	}
	return names
}

// firstID returns the first [Term] id in an OBO document.
func firstID(t *testing.T, text string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "id: ") {
			return strings.TrimSpace(line[len("id: "):])
		}
	}
	t.Fatal("no id: lines in generated OBO")
	return ""
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

// submit POSTs an ontology document and returns the status code and body.
func submit(t *testing.T, ts *httptest.Server, id, name, text string) (int, string) {
	t.Helper()
	u := ts.URL + "/ontologies?format=obo"
	if id != "" {
		u += "&id=" + url.QueryEscape(id)
	}
	if name != "" {
		u += "&name=" + url.QueryEscape(name)
	}
	resp, err := http.Post(u, "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatalf("submit %s: %v", id, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func get(t *testing.T, rawURL string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, string(b)
}

func status(t *testing.T, ts *httptest.Server, id string) StatusInfo {
	t.Helper()
	code, _, body := get(t, ts.URL+"/ontologies/"+id)
	if code != http.StatusOK {
		t.Fatalf("status %s: HTTP %d: %s", id, code, body)
	}
	var info StatusInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("status %s: bad JSON: %v", id, err)
	}
	return info
}

// waitStatus polls until the entry reaches want (or a terminal state that
// is not want, which fails fast).
func waitStatus(t *testing.T, ts *httptest.Server, id string, want Status) StatusInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info := status(t, ts, id)
		if info.Status == want {
			return info
		}
		if info.Status == StatusFailed && want != StatusFailed {
			t.Fatalf("ontology %s failed: %s", id, info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ontology %s stuck in %s (want %s): %s", id, info.Status, want, info.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func queryURL(ts *httptest.Server, id, spec string) string {
	return ts.URL + "/ontologies/" + id + "/query?q=" + url.QueryEscape(spec)
}

// gatedReasoner delays every reasoner call until the gate closes (or the
// test-scoped context is cancelled), so tests can hold a classification
// open deterministically.
type gatedReasoner struct {
	inner parowl.Reasoner
	gate  chan struct{}

	enterOnce sync.Once
	entered   chan struct{} // closed on the first blocked call
}

func newGate(inner parowl.Reasoner) *gatedReasoner {
	return &gatedReasoner{inner: inner, gate: make(chan struct{}), entered: make(chan struct{})}
}

func (g *gatedReasoner) wait(ctx context.Context) error {
	g.enterOnce.Do(func() { close(g.entered) })
	select {
	case <-g.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gatedReasoner) Sat(ctx context.Context, c *parowl.Concept) (bool, error) {
	if err := g.wait(ctx); err != nil {
		return false, err
	}
	return g.inner.Sat(ctx, c)
}

func (g *gatedReasoner) Subs(ctx context.Context, sup, sub *parowl.Concept) (bool, error) {
	if err := g.wait(ctx); err != nil {
		return false, err
	}
	return g.inner.Subs(ctx, sup, sub)
}

// gateByName builds a ReasonerFactory that gates ontologies whose name
// has the "slow-" prefix and leaves everything else on the stock
// auto-selected reasoner.
func gateByName(g *gatedReasoner) parowl.ReasonerFactory {
	return func(tb *parowl.TBox) parowl.Reasoner {
		if strings.HasPrefix(tb.Name, "slow-") {
			g.inner = parowl.NewAutoReasoner(tb)
			return g
		}
		return nil // engine falls back to its default selection
	}
}

// plainEngine builds an Engine whose plug-ins come from f, with an
// explicit template as owld builds its own: the cheap-first pipeline is
// off, so every classification reaches the plug-in the test gates, fails
// or counts. With the default template a complete EL fragment would be
// decided by the prepass without a single plug-in call.
func plainEngine(f parowl.ReasonerFactory) *parowl.Engine {
	return parowl.NewEngine(parowl.WithOptions(parowl.Options{}), parowl.WithReasoner(f))
}

// TestTaxonomyBodyLinearInEdges: a stack of k diamonds has 2^k paths
// from ⊤ to its last term, but GET taxonomy expands each node once, so
// the body is one line per direct edge plus the root, byte-identical to
// the library's Render.
func TestTaxonomyBodyLinearInEdges(t *testing.T) {
	t.Parallel()
	const k = 16
	var obo strings.Builder
	obo.WriteString("format-version: 1.2\n\n[Term]\nid: A00\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&obo, "\n[Term]\nid: B%02d\nis_a: A%02d\n", i, i)
		fmt.Fprintf(&obo, "\n[Term]\nid: C%02d\nis_a: A%02d\n", i, i)
		fmt.Fprintf(&obo, "\n[Term]\nid: A%02d\nis_a: B%02d\nis_a: C%02d\n", i+1, i, i)
	}
	text := obo.String()
	ref := refSnapshot(t, text)

	_, ts := newTestServer(t, Config{CheckpointDir: t.TempDir()})
	if code, body := submit(t, ts, "diamonds", "", text); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	waitStatus(t, ts, "diamonds", StatusClassified)
	code, _, body := get(t, ts.URL+"/ontologies/diamonds/taxonomy")
	if code != http.StatusOK {
		t.Fatalf("taxonomy: HTTP %d", code)
	}
	if lines, want := strings.Count(body, "\n"), 2+4*k; lines != want {
		t.Errorf("taxonomy body has %d lines, want %d (⊤, A00, then 4 per diamond)", lines, want)
	}
	if body != ref.Taxonomy().Render() {
		t.Errorf("taxonomy body differs from the library's Render")
	}
}

// TestLifecycle drives submit → classify → query end to end and checks
// every query answer is byte-identical to the library evaluator (the
// same code path `owlclass -query` prints).
func TestLifecycle(t *testing.T) {
	t.Parallel()
	text := genOBO(t, 7, 60)
	ref := refSnapshot(t, text)
	names := pickNames(t, ref, 4)

	_, ts := newTestServer(t, Config{CheckpointDir: t.TempDir()})

	code, body := submit(t, ts, "anatomy", "", text)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	info := waitStatus(t, ts, "anatomy", StatusClassified)
	if info.Generation != 1 || info.Classes == 0 || info.Stats == nil {
		t.Fatalf("classified info looks wrong: %+v", info)
	}

	spec := fmt.Sprintf("subsumes:%s,%s;ancestors:%s;descendants:%s;equivalents:%s;lca:%s,%s;depth:%s",
		names[0], names[1], names[2], names[3], names[0], names[1], names[2], names[3])
	wantLines, err := ref.EvalSpec(context.Background(), spec)
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	code, hdr, body := get(t, queryURL(ts, "anatomy", spec))
	if code != http.StatusOK {
		t.Fatalf("query: HTTP %d: %s", code, body)
	}
	if want := strings.Join(wantLines, "\n") + "\n"; body != want {
		t.Errorf("query answers differ from library evaluator:\n got %q\nwant %q", body, want)
	}
	if hdr.Get("X-Parowl-Generation") != "1" {
		t.Errorf("generation header = %q, want 1", hdr.Get("X-Parowl-Generation"))
	}

	// Taxonomy rendering must match the library's Render byte for byte.
	code, _, body = get(t, ts.URL+"/ontologies/anatomy/taxonomy")
	if code != http.StatusOK {
		t.Fatalf("taxonomy: HTTP %d", code)
	}
	if want := ref.Taxonomy().Render(); body != want {
		t.Errorf("taxonomy render differs from library (%d vs %d bytes)", len(body), len(want))
	}

	// Batched subsumption agrees with Snapshot.SubsumesBatch.
	pairs := [][2]string{{names[0], names[1]}, {names[2], names[3]}, {names[0], names[0]}}
	wantBools, err := ref.SubsumesBatch(pairs)
	if err != nil {
		t.Fatalf("reference batch: %v", err)
	}
	reqBody, _ := json.Marshal(subsumesRequest{Pairs: pairs})
	resp, err := http.Post(ts.URL+"/ontologies/anatomy/subsumes", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	var batch struct {
		Results []bool `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	resp.Body.Close()
	if fmt.Sprint(batch.Results) != fmt.Sprint(wantBools) {
		t.Errorf("batch = %v, want %v", batch.Results, wantBools)
	}

	// Error surface.
	for _, tc := range []struct {
		url  string
		want int
	}{
		{ts.URL + "/ontologies/nope", http.StatusNotFound},
		{queryURL(ts, "nope", "depth:"+names[0]), http.StatusNotFound},
		{queryURL(ts, "anatomy", "frobnicate:X"), http.StatusBadRequest},
		{queryURL(ts, "anatomy", "depth:no_such_concept_xyz"), http.StatusBadRequest},
		{queryURL(ts, "anatomy", ""), http.StatusBadRequest},
	} {
		if code, _, _ := get(t, tc.url); code != tc.want {
			t.Errorf("GET %s: HTTP %d, want %d", tc.url, code, tc.want)
		}
	}
}

// TestQueriesDuringClassification holds a second ontology's
// classification open and checks the first stays fully queryable, the
// in-flight one answers 409, and a duplicate submit answers 409.
func TestQueriesDuringClassification(t *testing.T) {
	t.Parallel()
	fastText := genOBO(t, 11, 80)
	slowText := genOBO(t, 12, 80)
	ref := refSnapshot(t, fastText)
	name := pickNames(t, ref, 1)[0]

	gate := newGate(nil)
	eng := plainEngine(gateByName(gate))
	_, ts := newTestServer(t, Config{Engine: eng})

	if code, body := submit(t, ts, "fast", "", fastText); code != http.StatusAccepted {
		t.Fatalf("submit fast: HTTP %d: %s", code, body)
	}
	waitStatus(t, ts, "fast", StatusClassified)

	if code, body := submit(t, ts, "slow", "slow-one", slowText); code != http.StatusAccepted {
		t.Fatalf("submit slow: HTTP %d: %s", code, body)
	}
	<-gate.entered // a classify worker is now parked inside the slow job

	// A duplicate submit for the in-flight id is refused.
	if code, _ := submit(t, ts, "slow", "slow-one", slowText); code != http.StatusConflict {
		t.Errorf("duplicate submit: HTTP %d, want 409", code)
	}
	// The in-flight ontology has no classified generation to serve yet.
	if code, hdr, _ := get(t, queryURL(ts, "slow", "depth:"+name)); code != http.StatusConflict || hdr.Get("Retry-After") == "" {
		t.Errorf("query on classifying ontology: HTTP %d (Retry-After %q), want 409 with Retry-After", code, hdr.Get("Retry-After"))
	}

	// The classified ontology keeps answering, concurrently, while the
	// other classification is parked.
	want, err := ref.EvalSpec(context.Background(), "ancestors:"+name)
	if err != nil {
		t.Fatal(err)
	}
	wantBody := strings.Join(want, "\n") + "\n"
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(queryURL(ts, "fast", "ancestors:"+name))
			if err != nil {
				errs <- err.Error()
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || string(b) != wantBody {
				errs <- fmt.Sprintf("HTTP %d: %q", resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent query: %s", e)
	}

	close(gate.gate) // release the parked classification
	waitStatus(t, ts, "slow", StatusClassified)
	if code, _, body := get(t, queryURL(ts, "slow", "depth:"+firstID(t, slowText))); code != http.StatusOK {
		t.Errorf("query after release: HTTP %d: %s", code, body)
	}
}

// TestResubmitSwapsServingState replaces an ontology's content and checks
// queries are served from the old taxonomy until the new classification
// lands, then from the new one.
func TestResubmitSwapsServingState(t *testing.T) {
	t.Parallel()
	oldText := genOBO(t, 21, 60)
	newText := genOBO(t, 22, 90)
	oldRef := refSnapshot(t, oldText)
	newRef := refSnapshot(t, newText)

	// Find a concept both generations know whose answers differ, so the
	// swap is observable through the query surface.
	var spec string
	var oldWant, newWant []string
	for _, node := range oldRef.Taxonomy().Nodes() {
		name := node.Canonical().Name
		if name == "" {
			continue // ⊤ / ⊥
		}
		trySpec := fmt.Sprintf("ancestors:%s;descendants:%s;depth:%s", name, name, name)
		ow, err := oldRef.EvalSpec(context.Background(), trySpec)
		if err != nil {
			continue
		}
		nw, err := newRef.EvalSpec(context.Background(), trySpec)
		if err != nil {
			continue
		}
		if strings.Join(ow, "\n") != strings.Join(nw, "\n") {
			spec, oldWant, newWant = trySpec, ow, nw
			break
		}
	}
	if spec == "" {
		t.Fatal("no shared concept with distinguishable answers; pick new seeds")
	}

	gate := newGate(nil)
	eng := plainEngine(gateByName(gate))
	_, ts := newTestServer(t, Config{Engine: eng})

	if code, body := submit(t, ts, "onto", "", oldText); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	waitStatus(t, ts, "onto", StatusClassified)

	// Resubmit with new content behind the gate: status flips to
	// classifying but the old generation keeps serving.
	if code, body := submit(t, ts, "onto", "slow-two", newText); code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d: %s", code, body)
	}
	<-gate.entered
	if got := status(t, ts, "onto"); got.Status != StatusClassifying || got.Generation != 1 {
		t.Fatalf("mid-reclassify status = %s gen %d, want classifying gen 1", got.Status, got.Generation)
	}
	if _, _, body := get(t, queryURL(ts, "onto", spec)); body != strings.Join(oldWant, "\n")+"\n" {
		t.Errorf("mid-reclassify query served new/garbled answers: %q", body)
	}

	close(gate.gate)
	info := waitStatus(t, ts, "onto", StatusClassified)
	if info.Generation != 2 {
		t.Errorf("post-swap generation = %d, want 2", info.Generation)
	}
	if _, _, body := get(t, queryURL(ts, "onto", spec)); body != strings.Join(newWant, "\n")+"\n" {
		t.Errorf("post-swap query = %q, want new generation's answer", body)
	}
}

// parkedBody is a request body that yields its JSON, then parks its next
// Read until release is closed, announcing on parked that it got there.
type parkedBody struct {
	data            []byte
	parked, release chan struct{}
}

func (b *parkedBody) Read(p []byte) (int, error) {
	if len(b.data) > 0 {
		n := copy(p, b.data)
		b.data = b.data[n:]
		return n, nil
	}
	close(b.parked)
	<-b.release
	return 0, io.EOF
}

// TestSubsumesGenerationMatchesAnswers publishes a new generation while
// a batch subsumes request holds the previous one's snapshot, and checks
// that the reply's X-Parowl-Generation names the generation its answers
// came from. The handler decodes the JSON, picks its snapshot, and then
// reads ?timeout= through FormValue, which drains a form-encoded body:
// parkedBody holds the handler exactly there while the resubmission
// lands.
func TestSubsumesGenerationMatchesAnswers(t *testing.T) {
	t.Parallel()
	oldText, newText := genOBO(t, 21, 60), genOBO(t, 22, 90)
	oldRef, newRef := refSnapshot(t, oldText), refSnapshot(t, newText)
	var pair [2]string
	var oldWant bool
	var names []string
	for _, node := range oldRef.Taxonomy().Nodes() {
		if name := node.Canonical().Name; name != "" {
			names = append(names, name)
		}
	}
	for _, sup := range names {
		for _, sub := range names {
			o, oerr := oldRef.SubsumesBatch([][2]string{{sup, sub}})
			n, nerr := newRef.SubsumesBatch([][2]string{{sup, sub}})
			if oerr == nil && nerr == nil && o[0] != n[0] && pair[0] == "" {
				pair, oldWant = [2]string{sup, sub}, o[0]
			}
		}
	}
	if pair[0] == "" {
		t.Fatal("no pair answered differently by the two generations; pick new seeds")
	}

	s, ts := newTestServer(t, Config{Engine: plainEngine(nil)})
	if code, body := submit(t, ts, "onto", "", oldText); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	if gen := waitStatus(t, ts, "onto", StatusClassified).Generation; gen != 1 {
		t.Fatalf("first generation = %d, want 1", gen)
	}

	body := &parkedBody{
		data:    []byte(fmt.Sprintf(`{"pairs": [[%q, %q]]}`, pair[0], pair[1])),
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
	req := httptest.NewRequest(http.MethodPost, "/ontologies/onto/subsumes", body)
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.SetPathValue("id", "onto")
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleSubsumes(rec, req)
	}()
	<-body.parked
	if code, text := submit(t, ts, "onto", "", newText); code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d: %s", code, text)
	}
	if gen := waitStatus(t, ts, "onto", StatusClassified).Generation; gen != 2 {
		t.Fatalf("second generation = %d, want 2", gen)
	}
	close(body.release)
	<-done

	var reply struct{ Results []bool }
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || len(reply.Results) != 1 {
		t.Fatalf("reply %q: %v", rec.Body.String(), err)
	}
	gen := rec.Header().Get("X-Parowl-Generation")
	if want := map[bool]string{oldWant: "1", !oldWant: "2"}[reply.Results[0]]; gen != want {
		t.Fatalf("reply says generation %s, but its answer %v is generation %s's", gen, reply.Results[0], want)
	}
}

// TestAdmissionControl fills the classify queue and checks overflow gets
// 429 + Retry-After without leaving ghost registry entries.
func TestAdmissionControl(t *testing.T) {
	t.Parallel()
	text := genOBO(t, 31, 50)

	gate := newGate(nil)
	factory := func(tb *parowl.TBox) parowl.Reasoner {
		gate.inner = parowl.NewAutoReasoner(tb)
		return gate // every classification parks until released
	}
	eng := plainEngine(factory)
	_, ts := newTestServer(t, Config{Engine: eng, QueueDepth: 1, ClassifyJobs: 1})

	if code, body := submit(t, ts, "o1", "", text); code != http.StatusAccepted {
		t.Fatalf("submit o1: HTTP %d: %s", code, body)
	}
	<-gate.entered // the only worker is parked inside o1
	if code, body := submit(t, ts, "o2", "", text); code != http.StatusAccepted {
		t.Fatalf("submit o2: HTTP %d: %s", code, body)
	}
	resp, err := http.Post(ts.URL+"/ontologies?format=obo&id=o3", "text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit o3 with full queue: HTTP %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The shed request leaves no registry ghost.
	if code, _, _ := get(t, ts.URL+"/ontologies/o3"); code != http.StatusNotFound {
		t.Errorf("o3 status after 429: HTTP %d, want 404", code)
	}

	close(gate.gate)
	waitStatus(t, ts, "o1", StatusClassified)
	waitStatus(t, ts, "o2", StatusClassified)
}

// blockAfterCheckpoint lets reasoner calls through until the checkpoint
// file exists, then parks every further call until cancelled — so a
// drain is guaranteed to interrupt mid-classification with a resumable
// checkpoint already on disk.
type blockAfterCheckpoint struct {
	inner parowl.Reasoner
	path  string
}

func (b *blockAfterCheckpoint) hold(ctx context.Context) error {
	if _, err := os.Stat(b.path); err != nil {
		return nil // no checkpoint yet: keep classifying
	}
	<-ctx.Done()
	return ctx.Err()
}

func (b *blockAfterCheckpoint) Sat(ctx context.Context, c *parowl.Concept) (bool, error) {
	if err := b.hold(ctx); err != nil {
		return false, err
	}
	return b.inner.Sat(ctx, c)
}

func (b *blockAfterCheckpoint) Subs(ctx context.Context, sup, sub *parowl.Concept) (bool, error) {
	if err := b.hold(ctx); err != nil {
		return false, err
	}
	return b.inner.Subs(ctx, sup, sub)
}

// TestDrainCheckpointResume drains the server mid-classification and
// checks the interrupted job left a checkpoint that a fresh server
// resumes into a taxonomy byte-identical to classifying from scratch.
func TestDrainCheckpointResume(t *testing.T) {
	t.Parallel()
	text := genOBO(t, 41, 120)
	ref := refSnapshot(t, text)
	ckdir := t.TempDir()
	ckpath := filepath.Join(ckdir, "big.ck")

	// Several random cycles over several worker groups guarantee a phase
	// boundary (checkpoint write) while subsumption tests still remain,
	// so the block below always engages mid-classification. One worker
	// would put every concept in a single cycle-1 group and settle all
	// pairs before the first boundary.
	eng := parowl.NewEngine(
		parowl.WithOptions(parowl.Options{RandomCycles: 8, Workers: 4}),
		parowl.WithReasoner(func(tb *parowl.TBox) parowl.Reasoner {
			return &blockAfterCheckpoint{inner: parowl.NewAutoReasoner(tb), path: ckpath}
		}))
	s1, ts1 := newTestServer(t, Config{Engine: eng, CheckpointDir: ckdir})

	if code, body := submit(t, ts1, "big", "", text); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	// Wait for the first phase-boundary snapshot, then drain.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	info := status(t, ts1, "big")
	if info.Status != StatusInterrupted {
		t.Fatalf("post-drain status = %s, want interrupted (err %q)", info.Status, info.Error)
	}
	if code, _ := submit(t, ts1, "other", "", text); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", code)
	}
	ts1.Close()

	// A fresh server over the same checkpoint dir resumes the job.
	_, ts2 := newTestServer(t, Config{CheckpointDir: ckdir})
	if code, body := submit(t, ts2, "big", "", text); code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d: %s", code, body)
	}
	info = waitStatus(t, ts2, "big", StatusClassified)
	if !info.Resumed {
		t.Error("resubmitted job did not resume from the checkpoint")
	}
	code, _, body := get(t, ts2.URL+"/ontologies/big/taxonomy")
	if code != http.StatusOK {
		t.Fatalf("taxonomy: HTTP %d", code)
	}
	if want := ref.Taxonomy().Render(); body != want {
		t.Errorf("resumed taxonomy differs from scratch classification (%d vs %d bytes)", len(body), len(want))
	}
}

// TestDrainFlushesQueuedJobs checks a queued-but-unstarted job is marked
// interrupted by Drain rather than left dangling.
func TestDrainFlushesQueuedJobs(t *testing.T) {
	t.Parallel()
	text := genOBO(t, 51, 50)
	gate := newGate(nil)
	factory := func(tb *parowl.TBox) parowl.Reasoner {
		gate.inner = parowl.NewAutoReasoner(tb)
		return gate
	}
	eng := plainEngine(factory)
	s, ts := newTestServer(t, Config{Engine: eng, QueueDepth: 4, ClassifyJobs: 1})

	if code, _ := submit(t, ts, "running", "", text); code != http.StatusAccepted {
		t.Fatal("submit running")
	}
	<-gate.entered
	if code, _ := submit(t, ts, "parked", "", text); code != http.StatusAccepted {
		t.Fatal("submit parked")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := status(t, ts, "running").Status; got != StatusInterrupted {
		t.Errorf("running job after drain = %s, want interrupted", got)
	}
	if got := status(t, ts, "parked").Status; got != StatusInterrupted {
		t.Errorf("parked job after drain = %s, want interrupted", got)
	}
}

// TestSubmitSchedulingOverride: a submit's ?sched= parameter overrides
// the engine's policy for that one job, the effective policy is surfaced
// in the status JSON, an async-scheduled job serves the identical
// taxonomy, and unknown or retired policy names are rejected at
// admission.
func TestSubmitSchedulingOverride(t *testing.T) {
	t.Parallel()
	text := genOBO(t, 9, 50)
	ref := refSnapshot(t, text)

	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/ontologies?format=obo&id=asy&sched=async",
		"text/plain", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with sched=async: HTTP %d", resp.StatusCode)
	}
	info := waitStatus(t, ts, "asy", StatusClassified)
	if info.Scheduling != "async" {
		t.Errorf("status scheduling = %q, want %q", info.Scheduling, "async")
	}
	code, _, body := get(t, ts.URL+"/ontologies/asy/taxonomy")
	if code != http.StatusOK {
		t.Fatalf("taxonomy: HTTP %d: %s", code, body)
	}
	if want := ref.Taxonomy().Render(); body != want {
		t.Errorf("async-scheduled taxonomy differs from reference:\n got:\n%s\nwant:\n%s", body, want)
	}

	// Without ?sched= the engine's default policy is used and reported.
	if code, b := submit(t, ts, "plain", "", text); code != http.StatusAccepted {
		t.Fatalf("plain submit: HTTP %d: %s", code, b)
	}
	if info := waitStatus(t, ts, "plain", StatusClassified); info.Scheduling != "roundrobin" {
		t.Errorf("default scheduling = %q, want roundrobin", info.Scheduling)
	}

	for _, name := range []string{"lifo", "workstealing", "worksharing"} {
		resp, err = http.Post(ts.URL+"/ontologies?format=obo&id=bad&sched="+name,
			"text/plain", strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sched=%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
}
