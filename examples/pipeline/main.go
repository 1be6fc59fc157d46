// Pipeline: an end-to-end ontology-engineering workflow on top of the
// public API — generate a corpus, serialize it in all three supported
// syntaxes, reload it, classify it, simulate an edit, and review the
// semantic diff. This is the maintenance loop an ontology team runs
// around the classifier.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"parowl"
)

func main() {
	eng := parowl.NewEngine()
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "parowl-pipeline-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Generate a corpus shaped like the paper's smallest Table IV
	// ontology, scaled down further for a quick run.
	profile, _ := parowl.ProfileByName("obo.PREVIOUS")
	profile = parowl.MiniProfile(profile, 10)
	tbox, err := parowl.Generate(profile, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated: %v\n", parowl.ComputeMetrics(tbox))

	// 2. Serialize in all three syntaxes (the extension picks the format)
	// and reload from the OBO copy.
	for _, name := range []string{"onto.ofn", "onto.obo", "onto.omn"} {
		path := filepath.Join(dir, name)
		if err := parowl.WriteFile(path, tbox, parowl.DetectFormat(path)); err != nil {
			log.Fatalf("writing %s: %v", name, err)
		}
	}
	reloaded, err := eng.LoadFile(filepath.Join(dir, "onto.obo"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded from OBO: %d concepts\n", reloaded.TBox().NumNamed())

	// 3. Classify with full tracing.
	res, err := reloaded.ClassifyWith(ctx, parowl.Options{
		Workers:      4,
		CollectTrace: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	sum := res.Taxonomy.Summarize()
	fmt.Printf("classified: %v\n", sum)
	fmt.Printf("tests: %d (pruned %d without testing)\n", res.Stats.SubsTests, res.Stats.Pruned)

	// 4. Simulate an edit: reload and add an axiom making one root
	// concept a subclass of another (a loaded TBox stays editable until
	// its first classification freezes it), then diff the
	// classifications.
	edited, err := eng.LoadFile(filepath.Join(dir, "onto.obo"))
	if err != nil {
		log.Fatal(err)
	}
	named := edited.TBox().NamedConcepts()
	edited.TBox().SubClassOf(named[1], named[len(named)-1])
	res2, err := edited.ClassifyWith(ctx, parowl.Options{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	diff := parowl.CompareTaxonomies(res.Taxonomy, res2.Taxonomy)
	fmt.Printf("\nsemantic diff after the edit (%d added entailments):\n", len(diff.AddedSubsumptions))
	for i, p := range diff.AddedSubsumptions {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(diff.AddedSubsumptions)-5)
			break
		}
		fmt.Printf("  %s ⊑ %s\n", p[0], p[1])
	}

	// 5. Export the taxonomy for visualization.
	dot := res2.Taxonomy.DOT()
	dotPath := filepath.Join(dir, "taxonomy.dot")
	if err := os.WriteFile(dotPath, []byte(dot), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGraphviz export: %d bytes (render with: dot -Tsvg %s)\n", len(dot), dotPath)
}
