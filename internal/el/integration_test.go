// Integration tests cross-checking the EL reasoner against the tableau
// reasoner and the parallel classification framework. They live in the
// external test package because internal/core now imports internal/el
// for the classifier's EL prepass.
package el_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"parowl/internal/core"
	"parowl/internal/el"
	"parowl/internal/tableau"
)

// TestQuickAgainstTableau cross-checks the saturation against the tableau
// reasoner on random EL TBoxes: every named-pair subsumption must agree.
func TestQuickAgainstTableau(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := el.RandomELTBox(rng, 5, 6)
		elr, err := el.New(tb, el.Options{Workers: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tab := tableau.New(tb, tableau.Options{})
		for _, sub := range tb.NamedConcepts() {
			for _, sup := range tb.NamedConcepts() {
				want, err := tab.Subs(context.Background(), sup, sub)
				if err != nil {
					// Node-budget blowup in the cross-check oracle, not a
					// disagreement: skip the pair.
					continue
				}
				got, err := elr.Subs(context.Background(), sup, sub)
				if err != nil {
					t.Fatalf("seed %d el: %v", seed, err)
				}
				if got != want {
					t.Logf("seed %d: %v ⊑ %v: el=%v tableau=%v", seed, sub, sup, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWorkerCountIrrelevant checks saturation results are independent
// of the worker count.
func TestQuickWorkerCountIrrelevant(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := el.RandomELTBox(rng, 6, 8)
		var results []map[string]bool
		for _, workers := range []int{1, 2, 4, 8} {
			r, err := el.New(tb, el.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			m := map[string]bool{}
			for _, sub := range tb.NamedConcepts() {
				for _, sup := range tb.NamedConcepts() {
					ok, err := r.Subs(context.Background(), sup, sub)
					if err != nil {
						t.Fatal(err)
					}
					m[sub.Name+"⊑"+sup.Name] = ok
				}
			}
			results = append(results, m)
		}
		for _, res := range results[1:] {
			for k, v := range results[0] {
				if res[k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestClassifyDirect: the saturation-based taxonomy must equal the one
// produced by the parallel classifier using this reasoner as a plug-in.
func TestClassifyDirect(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := el.RandomELTBox(rng, 8, 10)
		r, err := el.New(tb, el.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := r.Classify()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		viaFramework, err := core.Classify(tb, core.Options{Reasoner: r, Workers: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !direct.Equal(viaFramework.Taxonomy) {
			t.Fatalf("seed %d: direct EL taxonomy differs from framework taxonomy:\n%s\nvs\n%s",
				seed, direct.Fingerprint(), viaFramework.Taxonomy.Fingerprint())
		}
	}
}
