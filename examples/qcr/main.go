// QCR: classification of a bridg-profile ontology — the paper's hardest
// corpus (Table V, 967 qualified cardinality restrictions over 320
// concepts) — with the real tableau reasoner deciding the ≥/≤
// restrictions, and a demonstration of the Fig. 10(b) speedup plateau:
// with a few tests dominating the runtime, adding workers stops helping
// at a speedup of about 4.
//
//	go run ./examples/qcr
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"parowl"
)

var scale = flag.Int("scale", 8, "shrink the bridg profile by this factor")

func main() {
	flag.Parse()

	profile, ok := parowl.ProfileByName("bridg.biomedical_domain")
	if !ok {
		log.Fatal("bridg profile missing")
	}
	if *scale > 1 {
		profile = parowl.MiniProfile(profile, *scale)
	}
	ont, err := parowl.NewEngine().Generate(profile, 5)
	if err != nil {
		log.Fatal(err)
	}
	tbox := ont.TBox()
	m := parowl.ComputeMetrics(tbox)
	fmt.Printf("generated %s: %d concepts, %d QCRs, DL %s\n",
		tbox.Name, m.Concepts, m.QCRs, m.Expressivity)

	// Real tableau reasoning over the qualified cardinalities.
	tab := parowl.NewTableauReasoner(tbox)
	start := time.Now()
	res, err := ont.ClassifyWith(context.Background(), parowl.Options{Reasoner: tab})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tableau classification in %v: %d classes, %d tests\n",
		time.Since(start), res.Taxonomy.NumClasses(), res.Stats.SubsTests)

	unsat := len(res.Taxonomy.Bottom().Concepts) - 1
	if unsat > 0 {
		fmt.Printf("%d unsatisfiable concepts collapsed into ⊥\n", unsat)
	}

	// The Fig. 10(b) phenomenon, reproduced with the oracle plug-in and
	// a heavy-tailed cost model: a handful of subsumption tests cost a
	// quarter of the total runtime each, so speedup plateaus near 4
	// however many workers join.
	n := float64(m.Concepts)
	costs := parowl.HeavyTailCost(10*time.Millisecond, 4/(n*n), n*n/2, 5)
	oracle := parowl.NewOracleReasoner(tbox, costs)
	points, err := parowl.SpeedupSweep(tbox, oracle, []int{1, 4, 16, 64}, parowl.Options{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nspeedup with heavy-tailed test costs (paper Fig. 10(b)):")
	for _, pt := range points {
		fmt.Printf("  w = %-3d speedup = %.2f\n", pt.Workers, pt.Speedup)
	}
}
