package parowl

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func buildSmallTBox(t *testing.T) *TBox {
	t.Helper()
	tb := NewTBox("small")
	f := tb.Factory
	animal, cat, dog := tb.Declare("Animal"), tb.Declare("Cat"), tb.Declare("Dog")
	mammal := tb.Declare("Mammal")
	tb.SubClassOf(mammal, animal)
	tb.SubClassOf(cat, mammal)
	tb.SubClassOf(dog, mammal)
	tb.DisjointClasses(cat, dog)
	tb.SubClassOf(cat, f.Some(f.Role("eats"), tb.Declare("Mouse")))
	return tb
}

// classify runs tb through a default Engine's Ontology handle.
func classify(tb *TBox, opts Options) (*Result, error) {
	return NewEngine().NewOntology(tb).ClassifyWith(context.Background(), opts)
}

// loadFile loads path through a default Engine and returns its TBox.
func loadFile(path string) (*TBox, error) {
	o, err := NewEngine().LoadFile(path)
	if err != nil {
		return nil, err
	}
	return o.TBox(), nil
}

func TestClassifyDefaults(t *testing.T) {
	tb := buildSmallTBox(t)
	res, err := classify(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := tb.Factory
	if !res.Taxonomy.IsAncestor(f.Name("Animal"), f.Name("Cat")) {
		t.Error("Cat ⊑ Animal missing")
	}
	if res.Taxonomy.IsAncestor(f.Name("Dog"), f.Name("Cat")) {
		t.Error("Cat ⊑ Dog wrongly derived")
	}
	if res.Stats.SubsTests == 0 {
		t.Error("no tests recorded")
	}
}

func TestBaselinesAgree(t *testing.T) {
	tb := buildSmallTBox(t)
	par, err := classify(tb, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ont := NewEngine().NewOntology(tb)
	seq, err := ont.ClassifySequential(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	trav, err := ont.ClassifyEnhancedTraversal(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Taxonomy.Equal(seq) {
		t.Error("parallel vs sequential mismatch")
	}
	if !par.Taxonomy.Equal(trav) {
		t.Error("parallel vs traversal mismatch")
	}
}

func TestLoadFileOBOAndFSS(t *testing.T) {
	dir := t.TempDir()
	oboPath := filepath.Join(dir, "mini.obo")
	oboSrc := "[Term]\nid: A\n\n[Term]\nid: B\nis_a: A\n"
	if err := os.WriteFile(oboPath, []byte(oboSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	tb, err := loadFile(oboPath)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumNamed() != 2 {
		t.Errorf("obo concepts = %d", tb.NumNamed())
	}

	fssPath := filepath.Join(dir, "mini.ofn")
	fssSrc := "Ontology(\nSubClassOf(<urn:B> <urn:A>)\n)"
	if err := os.WriteFile(fssPath, []byte(fssSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	tb2, err := loadFile(fssPath)
	if err != nil {
		t.Fatal(err)
	}
	if tb2.NumNamed() != 2 {
		t.Errorf("fss concepts = %d", tb2.NumNamed())
	}
	if _, err := loadFile(filepath.Join(dir, "absent.obo")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	tb := buildSmallTBox(t)
	ofn := filepath.Join(dir, "out.ofn")
	if err := WriteFile(ofn, tb, FormatFunctional); err != nil {
		t.Fatal(err)
	}
	back, err := loadFile(ofn)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNamed() != tb.NumNamed() {
		t.Errorf("round trip lost concepts: %d vs %d", back.NumNamed(), tb.NumNamed())
	}
	oboPath := filepath.Join(dir, "out.obo")
	if err := WriteFile(oboPath, tb, FormatOBO); err != nil {
		t.Fatal(err)
	}
	omnPath := filepath.Join(dir, "out.omn")
	if err := WriteFile(omnPath, tb, FormatManchester); err != nil {
		t.Fatal(err)
	}
	backOmn, err := loadFile(omnPath)
	if err != nil {
		t.Fatal(err)
	}
	if backOmn.NumNamed() != tb.NumNamed() {
		t.Errorf("manchester round trip lost concepts: %d vs %d", backOmn.NumNamed(), tb.NumNamed())
	}
	// Classification semantics must survive the Manchester round trip.
	want, err := classify(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := classify(backOmn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Taxonomy.Fingerprint() != want.Taxonomy.Fingerprint() {
		t.Error("manchester round trip changed classification")
	}
}

func TestProfilesAndGenerate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 14 {
		t.Fatalf("profiles = %d, want 14", len(ps))
	}
	p, ok := ProfileByName("rnao_functional")
	if !ok {
		t.Fatal("rnao_functional missing")
	}
	tb, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ComputeMetrics(tb)
	if m.QCRs != 446 {
		t.Errorf("rnao QCRs = %d, want 446", m.QCRs)
	}
}

func TestReasonerConstructors(t *testing.T) {
	tb := buildSmallTBox(t)
	if _, err := NewELReasoner(tb); err != nil {
		t.Errorf("EL reasoner rejected EL ontology: %v", err)
	}
	alc := NewTBox("alc")
	f := alc.Factory
	alc.SubClassOf(alc.Declare("A"), f.Not(alc.Declare("B")))
	if _, err := NewELReasoner(alc); err == nil {
		t.Error("EL reasoner accepted negation")
	}
	// Auto must fall back to the tableau and still classify.
	res, err := classify(alc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Taxonomy == nil {
		t.Fatal("nil taxonomy")
	}
}

func TestSpeedupSweepShape(t *testing.T) {
	p, _ := ProfileByName("obo.PREVIOUS")
	tb, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewOracleReasoner(tb, UniformCost(200_000, 0.2, 1)) // 200µs per test
	points, err := SpeedupSweep(tb, oracle, []int{1, 4, 16}, Options{RandomCycles: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Speedup > 1.2 {
		t.Errorf("speedup(1) = %.2f", points[0].Speedup)
	}
	if points[2].Speedup < points[0].Speedup {
		t.Errorf("no scaling: %v", points)
	}
}

func TestTaxonomyRender(t *testing.T) {
	tb := buildSmallTBox(t)
	res, err := classify(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Taxonomy.Render()
	if !strings.Contains(out, "Mammal") || !strings.Contains(out, "  ") {
		t.Errorf("Render output suspicious:\n%s", out)
	}
}

func TestFormatNames(t *testing.T) {
	cases := map[Format]string{
		FormatFunctional: "functional",
		FormatOBO:        "obo",
		FormatManchester: "manchester",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("Format(%d).String() = %q, want %q", int(f), got, want)
		}
	}
}

func TestDetectFormat(t *testing.T) {
	cases := map[string]Format{
		"onto.obo":           FormatOBO,
		"dir/ONTO.OBO":       FormatOBO,
		"onto.omn":           FormatManchester,
		"onto.manchester":    FormatManchester,
		"onto.ofn":           FormatFunctional,
		"onto.owl":           FormatFunctional,
		"no-extension":       FormatFunctional,
		"weird.obo.ofn":      FormatFunctional,
		"/abs/path/file.OMN": FormatManchester,
	}
	for path, want := range cases {
		if got := DetectFormat(path); got != want {
			t.Errorf("DetectFormat(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestWriteFormatDispatch drives the collapsed Write/WriteFile API: one
// ontology, every format, reload through Engine.LoadFile's matching
// extension dispatch, and identical classification after each round trip.
func TestWriteFormatDispatch(t *testing.T) {
	dir := t.TempDir()
	tb := buildSmallTBox(t)
	want, err := classify(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		format Format
	}{
		{"out.ofn", FormatFunctional},
		{"out.obo", FormatOBO},
		{"out.omn", FormatManchester},
		{"out.manchester", FormatManchester},
	} {
		path := filepath.Join(dir, tc.name)
		if got := DetectFormat(path); got != tc.format {
			t.Fatalf("DetectFormat(%q) = %v, want %v", tc.name, got, tc.format)
		}
		if err := WriteFile(path, tb, tc.format); err != nil {
			t.Fatalf("WriteFile(%s, %v): %v", tc.name, tc.format, err)
		}
		back, err := loadFile(path)
		if err != nil {
			t.Fatalf("loadFile(%s): %v", tc.name, err)
		}
		if back.NumNamed() != tb.NumNamed() {
			t.Errorf("%s: round trip lost concepts: %d vs %d", tc.name, back.NumNamed(), tb.NumNamed())
		}
		got, err := classify(back, Options{})
		if err != nil {
			t.Fatalf("classifying %s round trip: %v", tc.name, err)
		}
		if got.Taxonomy.Fingerprint() != want.Taxonomy.Fingerprint() {
			t.Errorf("%s: round trip changed classification", tc.name)
		}
	}

	// Unknown format values are rejected, not silently defaulted.
	if err := Write(os.Stderr, tb, Format(42)); err == nil {
		t.Error("Write accepted Format(42)")
	}
	if err := WriteFile(filepath.Join(dir, "bad.ofn"), tb, Format(42)); err == nil {
		t.Error("WriteFile accepted Format(42)")
	}
	if !strings.Contains(Format(42).String(), "functional") {
		// String() defaults unknowns to "functional" for display only;
		// pin that so Write's stricter behavior stays deliberate.
		t.Errorf("Format(42).String() = %q", Format(42).String())
	}
}
