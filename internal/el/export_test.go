package el

import (
	"fmt"
	"math/rand"

	"parowl/internal/dl"
)

// RandomELTBox lets the external integration tests share the generator.
var RandomELTBox = randomELTBox

// randomELTBox builds a random EL TBox over nNames concepts. Left-hand
// sides always contain a named conjunct — the axiom shape of real OBO/ORE
// ontologies (SubClassOf/EquivalentClasses on a named class) and the shape
// the tableau's absorption handles without internalizing global
// disjunctions; bare ∃r.C left sides make the cross-check oracle
// (the tableau) exponentially slow without affecting the EL reasoner.
func randomELTBox(rng *rand.Rand, nNames, nAxioms int) *dl.TBox {
	tb := dl.NewTBox("rand")
	f := tb.Factory
	names := make([]*dl.Concept, nNames)
	for i := range names {
		names[i] = tb.Declare(fmt.Sprintf("N%d", i))
	}
	roles := []*dl.Role{f.Role("r"), f.Role("s")}
	if rng.Intn(2) == 0 {
		tb.SubObjectPropertyOf(roles[0], roles[1])
	}
	if rng.Intn(2) == 0 {
		tb.TransitiveObjectProperty(roles[rng.Intn(2)])
	}
	var elConcept func(depth int) *dl.Concept
	elConcept = func(depth int) *dl.Concept {
		if depth <= 0 || rng.Intn(3) == 0 {
			return names[rng.Intn(nNames)]
		}
		if rng.Intn(2) == 0 {
			return f.And(elConcept(depth-1), elConcept(depth-1))
		}
		return f.Some(roles[rng.Intn(2)], elConcept(depth-1))
	}
	for i := 0; i < nAxioms; i++ {
		lhs := names[rng.Intn(nNames)]
		if rng.Intn(3) == 0 {
			lhs = f.And(lhs, elConcept(1))
		}
		if rng.Intn(4) == 0 {
			// Genus-differentia definition: A ≡ B ⊓ C, the shape OBO
			// intersection_of definitions take; both directions absorb.
			tb.EquivalentClasses(names[rng.Intn(nNames)], f.And(names[rng.Intn(nNames)], elConcept(1)))
			continue
		}
		tb.SubClassOf(lhs, elConcept(2))
	}
	return tb
}
