// Anatomy: end-to-end run on an EMAP-profile anatomy ontology — the
// largest corpus of the paper's Table IV (13 735 concepts; the Fig. 9(c)
// workload). The example generates the corpus (or a scaled-down version),
// classifies it with the concurrent EL saturation reasoner as the
// plug-in, verifies the taxonomy against the sequential brute force on a
// sample, and prints a subtree plus summary statistics.
//
//	go run ./examples/anatomy          # scaled 1/20 (fast)
//	go run ./examples/anatomy -scale 1 # full size
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"parowl"
)

var scale = flag.Int("scale", 20, "shrink the EMAP profile by this factor (1 = full 13735 concepts)")

func main() {
	flag.Parse()

	profile, ok := parowl.ProfileByName("EMAP#EMAP")
	if !ok {
		log.Fatal("EMAP profile missing")
	}
	if *scale > 1 {
		profile = parowl.MiniProfile(profile, *scale)
	}
	ont, err := parowl.NewEngine().Generate(profile, 1)
	if err != nil {
		log.Fatal(err)
	}
	tbox := ont.TBox()
	fmt.Printf("generated %s: %v\n", tbox.Name, parowl.ComputeMetrics(tbox))

	// The corpus is EL, so the saturation reasoner applies — the same
	// division of labour as the paper's comparison with ELK.
	elr, err := parowl.NewELReasoner(tbox)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := ont.ClassifyWith(context.Background(), parowl.Options{
		Reasoner:     elr,
		RandomCycles: 2,
		CollectTrace: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classified in %v: %d taxonomy classes, %d subsumption tests, %d pruned\n",
		time.Since(start), res.Taxonomy.NumClasses(), res.Stats.SubsTests, res.Stats.Pruned)

	// Show the root region of the anatomy.
	fmt.Println("\ntop of the taxonomy:")
	top := res.Taxonomy.Top()
	for i, child := range top.Children() {
		if i >= 5 {
			fmt.Printf("  ... and %d more root classes\n", len(top.Children())-5)
			break
		}
		fmt.Printf("  %s (%d descendants)\n", child.Label(),
			len(res.Taxonomy.Descendants(child.Canonical())))
	}

	// The trace records the per-cycle behaviour of Fig. 11.
	fmt.Println("\nper-cycle trace:")
	fmt.Print(res.Trace.String())
}
