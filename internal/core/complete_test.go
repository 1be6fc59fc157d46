package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"parowl/internal/dl"
	"parowl/internal/el"
	"parowl/internal/taxonomy"
)

// TestQuickCompleteFragmentPath checks the run that classifies a complete
// EL fragment from its saturation's rows, with no P and no K, against the
// path a resumed run keeps: initSets, seed and phase 3 over K. On random
// EL and taxonomy TBoxes, each with an equivalence, ⊤ ⊑ C0 and an
// unsatisfiable concept, in both modes at one to four workers, the run
// must make no plug-in call and leave s.P and s.K nil; write the finished
// checkpoint the K path's hierarchy, Stats and epoch encode to, byte for
// byte; count the same Stats (PreSeeded as the formula in the number of
// unsatisfiable concepts) and trace, with the same InitialPossible and
// cycle sums; and render as the K path does, and, ⊤'s equivalents set
// apart, as the sequential brute force and el.ClassifyContext do.
func TestQuickCompleteFragmentPath(t *testing.T) {
	ctx := context.Background()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, gen := range []func(*rand.Rand, int) *dl.TBox{randomELTBox, randomTaxonomyTBox} {
			tb := withTopEquivUnsat(rng, gen(rng, 4+rng.Intn(40)))
			name := fmt.Sprintf("seed %d %s", seed, tb.Name)
			if !newFragment(tb, 1).complete {
				t.Errorf("%s: the fragment is partial", name)
				return false
			}
			brute, err := SequentialBruteForce(tb, tableauFactory(tb))
			if err != nil {
				t.Fatalf("%s: brute force: %v", name, err)
			}
			elr, err := el.New(tb, el.Options{Workers: 1})
			if err != nil {
				t.Fatalf("%s: el.New: %v", name, err)
			}
			elTax, err := elr.ClassifyContext(ctx)
			if err != nil {
				t.Fatalf("%s: el.ClassifyContext: %v", name, err)
			}
			for _, mode := range []Mode{Optimized, Basic} {
				for w := 1; w <= 4; w++ {
					where := fmt.Sprintf("%s mode=%v workers=%d", name, mode, w)
					if err := compareCompletePaths(t, tb, mode, w, brute.Render(), elTax.Render()); err != nil {
						t.Errorf("%s: %v", where, err)
						return false
					}
				}
			}
		}
		return true
	}
	seed := time.Now().UnixNano()
	t.Logf("quick.Config.Rand seed %d", seed)
	if err := quick.Check(check, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatal(err)
	}
}

// withTopEquivUnsat adds to tb an equivalence between two of its
// concepts, ⊤ ⊑ C0, and an unsatisfiable concept below two fresh
// disjoint ones, and returns tb. C0 has no told subsumer in either
// generator, and the disjoint concepts are fresh, so ⊤ stays
// satisfiable.
func withTopEquivUnsat(rng *rand.Rand, tb *dl.TBox) *dl.TBox {
	f := tb.Factory
	cs := tb.NamedConcepts()
	tb.EquivalentClasses(cs[1+rng.Intn(len(cs)-1)], cs[1+rng.Intn(len(cs)-1)])
	tb.SubClassOf(f.Top(), cs[0])
	d1, d2 := tb.Declare("Disjoint1"), tb.Declare("Disjoint2")
	tb.SubClassOf(d1, cs[rng.Intn(len(cs))])
	tb.SubClassOf(d2, cs[rng.Intn(len(cs))])
	tb.DisjointClasses(d1, d2)
	tb.SubClassOf(tb.Declare("Bottom"), f.And(d1, d2))
	return tb
}

// compareCompletePaths classifies tb once through ClassifyContext and
// once through the K path by hand, and reports the first difference
// TestQuickCompleteFragmentPath looks for.
func compareCompletePaths(t *testing.T, tb *dl.TBox, mode Mode, workers int, brute, elRender string) error {
	path := ckPath(t)
	res, s, err := classifyContext(context.Background(), tb, Options{
		Reasoner: noCalls(tb), Workers: workers, Mode: mode,
		ELPrepass: true, CollectTrace: true, Checkpoint: path,
	})
	if err != nil {
		return err
	}
	if s.P != nil || s.K != nil {
		return fmt.Errorf("the run built P or K")
	}

	ref := newState(tb, noCalls(tb), mode == Optimized)
	p := newPool(workers, RoundRobin, &ref.count.Steals)
	defer p.close()
	trace := &Trace{InitialPossible: ref.remainingPossible()}
	if up := ref.runPrepass(p, workers, newFragment(tb, workers), nil, trace); up != nil {
		return fmt.Errorf("the K path's prepass returned rows")
	}
	epoch := p.epoch.Load()
	tax, h, err := ref.buildTaxonomy(p, nil, trace)
	if err != nil {
		return err
	}

	snap := ref.snapshot(PhaseHierarchy, epoch)
	snap.hierarchy = h
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, snap.encode()) {
		return fmt.Errorf("finished checkpoint differs from the K path's")
	}
	if want := ref.stats(); res.Stats != want {
		return fmt.Errorf("Stats %+v, K path %+v", res.Stats, want)
	}
	var u int64 // unsatisfiable concepts
	for _, c := range h.class {
		if c < 0 {
			u++
		}
	}
	m := int64(s.n) - u
	pairs := m * (m - 1)
	if mode == Basic {
		pairs = (m - 1) * (m - 1)
	}
	if want := u + (m - 1) + pairs; res.Stats.PreSeeded != want || u == 0 {
		return fmt.Errorf("PreSeeded %d with %d unsatisfiable concepts, want %d", res.Stats.PreSeeded, u, want)
	}
	if err := sameTraces(res.Trace, trace, res.Stats); err != nil {
		return err
	}
	if res.Trace.InitialPossible != s.possibleAmong(s.n) {
		return fmt.Errorf("InitialPossible %d, want %d", res.Trace.InitialPossible, s.possibleAmong(s.n))
	}

	if res.Taxonomy.Render() != tax.Render() {
		return fmt.Errorf("render differs from the K path's:\n%s\nwant:\n%s", res.Taxonomy.Render(), tax.Render())
	}
	apart, err := topApart(s, h)
	if err != nil {
		return err
	}
	for ref, want := range map[string]string{"brute force": brute, "el.ClassifyContext": elRender} {
		if apart.Render() != want {
			return fmt.Errorf("render differs from %s's:\n%s\nwant:\n%s", ref, apart.Render(), want)
		}
	}
	return nil
}

// sameTraces reports whether two traces record the same phases with the
// same counter deltas, the InitialPossible they start from and their
// cycles summing to st.
func sameTraces(got, want *Trace, st Stats) error {
	if got.InitialPossible != want.InitialPossible {
		return fmt.Errorf("InitialPossible %d, K path %d", got.InitialPossible, want.InitialPossible)
	}
	if len(got.Cycles) != len(want.Cycles) {
		return fmt.Errorf("%d trace cycles, K path %d", len(got.Cycles), len(want.Cycles))
	}
	var sum Stats
	for i, c := range got.Cycles {
		w := want.Cycles[i]
		if c.Phase != w.Phase || c.Index != w.Index || c.Stats != w.Stats || c.RemainingPossible != w.RemainingPossible {
			return fmt.Errorf("trace cycle %d: %s/%d %+v, K path %s/%d %+v", i, c.Phase, c.Index, c.Stats, w.Phase, w.Index, w.Stats)
		}
		sc, cc := sum.cells(), c.Stats.cells()
		for k := range sc {
			*sc[k] += *cc[k]
		}
	}
	var phases []Phase
	for _, c := range got.Cycles {
		phases = append(phases, c.Phase)
	}
	if want := []Phase{PhasePrepass, PhaseHierarchy, PhaseHierarchy}; !slices.Equal(phases, want) {
		return fmt.Errorf("trace phases %v, want %v", phases, want)
	}
	if sum != st {
		return fmt.Errorf("trace cycles sum to %+v, Stats %+v", sum, st)
	}
	return nil
}

// topApart builds the taxonomy of h with ⊤'s named equivalents set apart
// as a class directly below ⊤, the shape the sequential references give
// them: both build from named subsumers alone and never test ⊤ ⊑ C.
func topApart(s *state, h hierarchy) (*taxonomy.Taxonomy, error) {
	class, children := slices.Clone(h.class), slices.Clone(h.children)
	if r := class[s.top]; r != s.top {
		class[s.top] = s.top
		children[s.top] = []int{r}
	}
	return taxonomy.Build(s.tbox.Factory, s.named, class, children)
}
