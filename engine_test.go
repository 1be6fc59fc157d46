package parowl_test

// Tests for the handle-based public API: Engine construction and
// reasoner selection, Ontology generation swapping, Snapshot queries
// (including the batched kernel row sweep), the query mini-language, and
// the typed not-classified/unknown-concept errors.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"parowl"
)

func zooTBox() *parowl.TBox {
	tb := parowl.NewTBox("zoo")
	animal := tb.Declare("Animal")
	mammal := tb.Declare("Mammal")
	cat := tb.Declare("Cat")
	fish := tb.Declare("Fish")
	tb.SubClassOf(mammal, animal)
	tb.SubClassOf(cat, mammal)
	tb.SubClassOf(fish, animal)
	return tb
}

func TestOntologyUnclassifiedErrors(t *testing.T) {
	ont := parowl.NewEngine().NewOntology(zooTBox())
	if ont.Classified() {
		t.Fatal("fresh handle claims to be classified")
	}
	if _, err := ont.Snapshot(); !errors.Is(err, parowl.ErrNotClassified) {
		t.Errorf("Snapshot error = %v, want ErrNotClassified", err)
	}
	if _, err := ont.Taxonomy(); !errors.Is(err, parowl.ErrNotClassified) {
		t.Errorf("Taxonomy error = %v, want ErrNotClassified", err)
	}
	if _, err := ont.Kernel(); !errors.Is(err, parowl.ErrNotClassified) {
		t.Errorf("Kernel error = %v, want ErrNotClassified", err)
	}
}

func TestEngineReasonerFactory(t *testing.T) {
	var calls int
	eng := parowl.NewEngine(parowl.WithReasoner(func(tb *parowl.TBox) parowl.Reasoner {
		calls++
		return nil // fall back to the default auto selection
	}))
	ont := eng.NewOntology(zooTBox())
	if _, err := ont.Classify(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("factory called %d times, want 1", calls)
	}
	snap, err := ont.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := snap.Subsumes("Animal", "Cat"); !ok {
		t.Error("Cat ⊑ Animal missing after factory fallback")
	}
}

func TestSnapshotQueries(t *testing.T) {
	ont := parowl.NewEngine().NewOntology(zooTBox())
	if _, err := ont.Classify(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := ont.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation() != 1 {
		t.Errorf("generation = %d, want 1", snap.Generation())
	}
	anc, err := snap.Ancestors("Cat")
	if err != nil {
		t.Fatal(err)
	}
	if len(anc) != 3 { // Mammal, Animal, ⊤
		t.Errorf("ancestors(Cat) = %d nodes, want 3", len(anc))
	}
	depth, err := snap.Depth("Cat")
	if err != nil || depth != 3 {
		t.Errorf("depth(Cat) = %d, %v; want 3", depth, err)
	}
	if _, err := snap.Ancestors("Platypus"); !errors.Is(err, parowl.ErrUnknownConcept) {
		t.Errorf("unknown concept error = %v, want ErrUnknownConcept", err)
	}
	lca, err := snap.LCA("Cat", "Fish")
	if err != nil || len(lca) != 1 || lca[0].Label() != "Animal" {
		t.Errorf("lca(Cat, Fish) = %v, %v; want [Animal]", lca, err)
	}
}

// TestSubsumesBatchMatchesSingle checks the batched row-sweep answers
// are identical to pair-at-a-time Subsumes for every concept pair.
func TestSubsumesBatchMatchesSingle(t *testing.T) {
	ont := parowl.NewEngine().NewOntology(zooTBox())
	if _, err := ont.Classify(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := ont.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Animal", "Mammal", "Cat", "Fish"}
	var pairs [][2]string
	var want []bool
	for _, sup := range names {
		for _, sub := range names {
			pairs = append(pairs, [2]string{sup, sub})
			one, err := snap.Subsumes(sup, sub)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, one)
		}
	}
	got, err := snap.SubsumesBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if got[i] != want[i] {
			t.Errorf("batch[%v] = %v, single = %v", pairs[i], got[i], want[i])
		}
	}
	if _, err := snap.SubsumesBatch([][2]string{{"Animal", "Platypus"}}); !errors.Is(err, parowl.ErrUnknownConcept) {
		t.Errorf("batch with unknown concept = %v, want ErrUnknownConcept", err)
	}
}

func TestParseQueriesErrors(t *testing.T) {
	for _, tc := range []struct {
		spec, wantSub string
	}{
		{"frobnicate:A", "unknown op"},
		{"subsumes:A", "takes 2 argument(s)"},
		{"depth:A,B", "takes 1 argument(s)"},
	} {
		if _, err := parowl.ParseQueries(tc.spec); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseQueries(%q) error = %v, want substring %q", tc.spec, err, tc.wantSub)
		}
	}
	qs, err := parowl.ParseQueries("subsumes:A,B; ;ancestors:C")
	if err != nil || len(qs) != 2 {
		t.Errorf("ParseQueries = %d queries, %v; want 2, nil", len(qs), err)
	}
}

func TestParseFormat(t *testing.T) {
	for name, want := range map[string]parowl.Format{
		"obo":        parowl.FormatOBO,
		"functional": parowl.FormatFunctional,
		"ofn":        parowl.FormatFunctional,
		"manchester": parowl.FormatManchester,
		"omn":        parowl.FormatManchester,
	} {
		got, err := parowl.ParseFormat(name)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parowl.ParseFormat("rdfxml"); err == nil {
		t.Error("ParseFormat accepted rdfxml")
	}
}

// TestGenerationSwap reclassifies while concurrent readers hold and use
// the previous Snapshot: old snapshots stay fully usable and the handle
// serves the new generation afterwards.
func TestGenerationSwap(t *testing.T) {
	ont := parowl.NewEngine().NewOntology(zooTBox())
	if _, err := ont.Classify(context.Background()); err != nil {
		t.Fatal(err)
	}
	first, err := ont.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ok, err := first.Subsumes("Animal", "Cat"); err != nil || !ok {
					errs <- fmt.Errorf("old generation broke mid-swap: %v %v", ok, err)
					return
				}
				cur, err := ont.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				if _, err := cur.Ancestors("Cat"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if _, err := ont.ClassifyWith(context.Background(), parowl.Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	last, err := ont.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if last.Generation() != 6 {
		t.Errorf("generation after 5 reclassifications = %d, want 6", last.Generation())
	}
	if !first.Taxonomy().Equal(last.Taxonomy()) {
		t.Error("reclassification changed the taxonomy")
	}
}
