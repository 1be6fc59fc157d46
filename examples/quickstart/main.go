// Quickstart: build a small ontology programmatically, classify it in
// parallel, and print the taxonomy.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"parowl"
)

func main() {
	// A toy zoology TBox. The public API mirrors OWL's axiom vocabulary:
	// SubClassOf, EquivalentClasses, DisjointClasses plus the class
	// expression constructors on the Factory.
	tb := parowl.NewTBox("zoo")
	f := tb.Factory

	animal := tb.Declare("Animal")
	mammal := tb.Declare("Mammal")
	bird := tb.Declare("Bird")
	cat := tb.Declare("Cat")
	penguin := tb.Declare("Penguin")
	flying := tb.Declare("FlyingAnimal")

	eats := f.Role("eats")
	fish := tb.Declare("Fish")

	tb.SubClassOf(mammal, animal)
	tb.SubClassOf(bird, animal)
	tb.SubClassOf(fish, animal)
	tb.SubClassOf(cat, mammal)
	tb.DisjointClasses(mammal, bird)
	// A penguin is a bird that eats fish.
	tb.EquivalentClasses(penguin, f.And(bird, f.Some(eats, fish)))
	// Flying animals are animals; penguins famously do not fly.
	tb.SubClassOf(flying, animal)
	tb.DisjointClasses(penguin, flying)

	// Classify through an Engine with its defaults: GOMAXPROCS workers,
	// optimized mode, and an automatically selected reasoner plug-in (the
	// EL saturation reasoner here: the lowering keeps this TBox in EL⊥).
	res, err := parowl.NewEngine().NewOntology(tb).Classify(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("taxonomy:")
	fmt.Print(res.Taxonomy.Render())

	fmt.Printf("\nsubsumption tests: %d (plus %d pairs pruned without testing)\n",
		res.Stats.SubsTests, res.Stats.Pruned)

	// Point queries on the result.
	fmt.Printf("Cat ⊑ Animal:      %v\n", res.Taxonomy.IsAncestor(animal, cat))
	fmt.Printf("Penguin ⊑ Animal:  %v\n", res.Taxonomy.IsAncestor(animal, penguin))
	fmt.Printf("Penguin ⊑ Mammal:  %v\n", res.Taxonomy.IsAncestor(mammal, penguin))
}
