// Plugin: the paper keeps its architecture universal by treating the OWL
// reasoner as a plug-in behind sat?() and subs?() (it uses HermiT; "it
// could be replaced by any other OWL reasoner"). This example implements
// a custom plug-in — a simple structural subsumption checker for
// conjunctions of names over a told hierarchy — and runs the parallel
// classifier with it, comparing the result against the built-in tableau.
//
//	go run ./examples/plugin
package main

import (
	"context"
	"fmt"
	"log"

	"parowl"
)

// toldReasoner is a toy reasoner plug-in: subsumption holds iff it follows
// from the reflexive-transitive closure of the told named hierarchy. It is
// sound and complete for TBoxes whose axioms are named SubClassOf only.
type toldReasoner struct {
	parents map[*parowl.Concept][]*parowl.Concept
}

func newToldReasoner(t *parowl.TBox) *toldReasoner {
	r := &toldReasoner{parents: map[*parowl.Concept][]*parowl.Concept{}}
	for _, ax := range t.AsGCIs() {
		if ax.Sub.Op == parowl.OpName && ax.Sup.Op == parowl.OpName {
			r.parents[ax.Sub] = append(r.parents[ax.Sub], ax.Sup)
		}
	}
	return r
}

// Sat: every named concept is satisfiable in a pure hierarchy. A plug-in
// under a deadline should honor ctx; this one answers instantly, so a
// single up-front check is all the contract requires.
func (r *toldReasoner) Sat(ctx context.Context, _ *parowl.Concept) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return true, nil
}

// Subs walks the told hierarchy upward from sub looking for sup.
func (r *toldReasoner) Subs(ctx context.Context, sup, sub *parowl.Concept) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if sup.Op == parowl.OpTop || sup == sub {
		return true, nil
	}
	seen := map[*parowl.Concept]bool{}
	var up func(c *parowl.Concept) bool
	up = func(c *parowl.Concept) bool {
		if c == sup {
			return true
		}
		if seen[c] {
			return false
		}
		seen[c] = true
		for _, p := range r.parents[c] {
			if up(p) {
				return true
			}
		}
		return false
	}
	return up(sub), nil
}

func main() {
	// A pure named hierarchy, where the toy plug-in is complete.
	tb := parowl.NewTBox("vehicles")
	vehicle := tb.Declare("Vehicle")
	car, bike := tb.Declare("Car"), tb.Declare("Bicycle")
	ev, sports := tb.Declare("ElectricCar"), tb.Declare("SportsCar")
	hyper := tb.Declare("ElectricSportsCar")
	tb.SubClassOf(car, vehicle)
	tb.SubClassOf(bike, vehicle)
	tb.SubClassOf(ev, car)
	tb.SubClassOf(sports, car)
	tb.SubClassOf(hyper, ev)
	tb.SubClassOf(hyper, sports)

	// Run the parallel classifier with the custom plug-in.
	ont := parowl.NewEngine().NewOntology(tb)
	custom, err := ont.ClassifyWith(context.Background(), parowl.Options{
		Reasoner: newToldReasoner(tb),
		Workers:  4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// And with the built-in tableau: the taxonomies must agree.
	builtin, err := ont.ClassifyWith(context.Background(), parowl.Options{
		Reasoner: parowl.NewTableauReasoner(tb),
		Workers:  4,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("taxonomy from the custom told-hierarchy plug-in:")
	fmt.Print(custom.Taxonomy.Render())
	if custom.Taxonomy.Equal(builtin.Taxonomy) {
		fmt.Println("\ncustom plug-in and built-in tableau agree ✓")
	} else {
		fmt.Println("\nWARNING: plug-ins disagree")
	}
	fmt.Printf("custom plug-in answered %d subsumption tests\n", custom.Stats.SubsTests)
}
