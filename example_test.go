package parowl_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"parowl"
)

// ExampleEngine shows the handle-based API: one Engine per process
// (policy: workers, scheduling, reasoner selection), one Ontology per
// TBox, and an immutable Snapshot per classified generation.
func ExampleEngine() {
	tb := parowl.NewTBox("pets")
	animal := tb.Declare("Animal")
	dog := tb.Declare("Dog")
	puppy := tb.Declare("Puppy")
	tb.SubClassOf(dog, animal)
	tb.SubClassOf(puppy, dog)

	eng := parowl.NewEngine(parowl.WithWorkers(2))
	ont := eng.NewOntology(tb)
	if _, err := ont.Classify(context.Background()); err != nil {
		log.Fatal(err)
	}
	snap, err := ont.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(snap.Taxonomy().Render())
	ok, _ := snap.Subsumes("Animal", "Puppy") // one bit test on the kernel
	fmt.Println("Puppy ⊑ Animal:", ok)
	// Output:
	// ⊤
	//   Animal
	//     Dog
	//       Puppy
	// Puppy ⊑ Animal: true
}

// ExampleSnapshot_EvalSpec answers the query mini-language shared by
// `owlclass -query` and the owld daemon's /query endpoint.
func ExampleSnapshot_EvalSpec() {
	tb := parowl.NewTBox("q")
	animal := tb.Declare("Animal")
	dog := tb.Declare("Dog")
	cat := tb.Declare("Cat")
	tb.SubClassOf(dog, animal)
	tb.SubClassOf(cat, animal)

	ont := parowl.NewEngine().NewOntology(tb)
	if _, err := ont.Classify(context.Background()); err != nil {
		log.Fatal(err)
	}
	snap, _ := ont.Snapshot()
	lines, err := snap.EvalSpec(context.Background(), "subsumes:Animal,Dog;lca:Dog,Cat;depth:Cat")
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range lines {
		fmt.Println(line)
	}
	// Output:
	// subsumes(Animal, Dog) = true
	// lca(Dog, Cat) = Animal
	// depth(Cat) = 2
}

// ExampleOntology_ClassifyWith reclassifies an ontology with custom
// options; queries issued against an earlier Snapshot keep seeing their
// own generation while (and after) the swap happens.
func ExampleOntology_ClassifyWith() {
	tb := parowl.NewTBox("gen")
	a := tb.Declare("A")
	tb.SubClassOf(tb.Declare("B"), a)

	ont := parowl.NewEngine().NewOntology(tb)
	if _, err := ont.Classify(context.Background()); err != nil {
		log.Fatal(err)
	}
	first, _ := ont.Snapshot()

	if _, err := ont.ClassifyWith(context.Background(), parowl.Options{Workers: 2}); err != nil {
		log.Fatal(err)
	}
	second, _ := ont.Snapshot()
	fmt.Println(first.Generation(), second.Generation(), first.Taxonomy().Equal(second.Taxonomy()))
	// Output:
	// 1 2 true
}

// ExampleOntology_Classify_equivalence shows equivalence detection: a
// defined concept collapses into the class it is equivalent to.
func ExampleOntology_Classify_equivalence() {
	tb := parowl.NewTBox("eq")
	f := tb.Factory
	human := tb.Declare("Human")
	person := tb.Declare("Person")
	tb.EquivalentClasses(person, human)
	tb.SubClassOf(tb.Declare("Pilot"), f.And(human, person))

	res, err := parowl.NewEngine().NewOntology(tb).Classify(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Taxonomy.Render())
	// Output:
	// ⊤
	//   Human ≡ Person
	//     Pilot
}

// ExampleTaxonomy_IsAncestor queries entailed subsumption on the result.
func ExampleTaxonomy_IsAncestor() {
	tb := parowl.NewTBox("q")
	f := tb.Factory
	bird := tb.Declare("Bird")
	penguin := tb.Declare("Penguin")
	fish := tb.Declare("Fish")
	eats := f.Role("eats")
	tb.EquivalentClasses(penguin, f.And(bird, f.Some(eats, fish)))

	res, err := parowl.NewEngine().NewOntology(tb).Classify(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Taxonomy.IsAncestor(bird, penguin))
	fmt.Println(res.Taxonomy.IsAncestor(penguin, bird))
	// Output:
	// true
	// false
}

// ExampleCompareTaxonomies diffs the classifications of two ontology
// versions — the regression check for ontology edits.
func ExampleCompareTaxonomies() {
	eng := parowl.NewEngine()
	build := func(extra bool) *parowl.Taxonomy {
		tb := parowl.NewTBox("v")
		a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
		tb.SubClassOf(b, a)
		tb.SubClassOf(c, a)
		if extra {
			tb.SubClassOf(c, b) // the edit: C moves under B
		}
		res, err := eng.NewOntology(tb).Classify(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res.Taxonomy
	}
	diff := parowl.CompareTaxonomies(build(false), build(true))
	fmt.Print(diff)
	// Output:
	// added subsumptions (1):
	//   C ⊑ B
}

// ExampleGenerate reproduces a corpus row from the paper's Table V and
// verifies its metric counts.
func ExampleGenerate() {
	profile, _ := parowl.ProfileByName("bridg.biomedical_domain")
	tb, err := parowl.Generate(profile, 1)
	if err != nil {
		log.Fatal(err)
	}
	m := parowl.ComputeMetrics(tb)
	fmt.Println(m.Concepts, m.Axioms, m.QCRs)
	// Output:
	// 320 6347 967
}

// ExampleOntology_ClassifyWith_budget classifies under both a whole-run
// deadline and a per-test budget. A test that exhausts its budget (plus
// retries) is recorded in Result.Undecided instead of failing the run, so
// the returned taxonomy is sound but may be missing subsumptions.
func ExampleOntology_ClassifyWith_budget() {
	tb := parowl.NewTBox("pets")
	animal := tb.Declare("Animal")
	dog := tb.Declare("Dog")
	tb.SubClassOf(dog, animal)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	res, err := parowl.NewEngine().NewOntology(tb).ClassifyWith(ctx, parowl.Options{
		Workers:     2,
		TestTimeout: 100 * time.Millisecond, // budget per sat?/subs? test
		TestRetries: 1,                      // one retry with a doubled budget
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range res.Undecided {
		fmt.Println("undecided:", u)
	}
	fmt.Print(res.Taxonomy.Render())
	// Output:
	// ⊤
	//   Animal
	//     Dog
}
