package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"parowl/internal/bitset"
	"parowl/internal/dl"
	"parowl/internal/el"
	"parowl/internal/ontogen"
	"parowl/internal/taxonomy"
)

// refContract is phase 3's contraction done bit by bit, the reference the
// word-parallel contractRows must match: a class is a set of concepts
// joined by mutual K membership (probed with one Test per K bit), its
// representative is its smallest index, and a representative's row is
// built with one Set per member bit.
func refContract(s *state) (kc []*bitset.Set, rep []int) {
	n := s.n
	rep = make([]int, n)
	for i := range rep {
		rep[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for rep[i] != i {
			rep[i] = rep[rep[i]]
			i = rep[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra > rb {
			ra, rb = rb, ra
		}
		if ra != rb {
			rep[rb] = ra
		}
	}
	unsat := func(x int) bool { return s.satState[x].Load() == satNo }
	for x := 0; x < n; x++ {
		if unsat(x) {
			continue
		}
		s.K[x].ForEach(func(y int) bool {
			if !unsat(y) && s.K[y].Test(x) {
				union(x, y)
			}
			return true
		})
	}
	members := make([][]int, n)
	for m := 0; m < n; m++ {
		if !unsat(m) {
			r := find(m)
			members[r] = append(members[r], m)
		}
	}
	kc = make([]*bitset.Set, n)
	for x := 0; x < n; x++ {
		if unsat(x) || find(x) != x {
			continue
		}
		acc := bitset.New(n)
		for _, member := range members[x] {
			s.K[member].ForEach(func(y int) bool {
				if unsat(y) {
					return true
				}
				if cy := find(y); cy != x {
					acc.Set(cy)
				}
				return true
			})
		}
		kc[x] = acc
	}
	for x := range rep {
		rep[x] = find(x)
	}
	return kc, rep
}

// refCloseRows is closeRows with a per-bit Test in the search and in the
// closure.
func refCloseRows(kc []*bitset.Set) {
	order := make([]int, 0, len(kc))
	seen := make([]bool, len(kc))
	type frame struct{ x, next int }
	var stack []frame
	for root, row := range kc {
		if row == nil || seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack, frame{x: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			y := f.next
			for y < len(kc) && !kc[f.x].Test(y) {
				y++
			}
			if y == len(kc) {
				order = append(order, f.x)
				stack = stack[:len(stack)-1]
				continue
			}
			f.next = y + 1
			if !seen[y] {
				seen[y] = true
				stack = append(stack, frame{x: y})
			}
		}
	}
	covered := bitset.New(len(kc))
	for _, x := range order {
		covered.ClearAll()
		kc[x].ForEach(func(y int) bool {
			if !covered.Test(y) {
				covered.Union(kc[y])
			}
			return true
		})
		kc[x].Union(covered)
	}
}

// refDirectChildren is directChildren with a per-member Test in both
// passes.
func refDirectChildren(row *bitset.Set, kc []*bitset.Set, below *bitset.Set) []int {
	below.ClearAll()
	row.ForEach(func(y int) bool {
		if !below.Test(y) {
			below.Union(kc[y])
		}
		return true
	})
	var out []int
	row.ForEach(func(y int) bool {
		if !below.Test(y) {
			out = append(out, y)
		}
		return true
	})
	return out
}

// refBuildTaxonomy is phase 3 run sequentially on the per-bit reference
// passes, ending in taxonomy.Build with its own classes and children.
func refBuildTaxonomy(s *state) (*taxonomy.Taxonomy, error) {
	kc, rep := refContract(s)
	refCloseRows(kc)
	below := bitset.New(s.n)
	children := make([][]int, s.n)
	for x, row := range kc {
		if row != nil {
			children[x] = refDirectChildren(row, kc, below)
		}
	}
	for x := range rep {
		if s.satState[x].Load() == satNo {
			rep[x] = -1
		}
	}
	return taxonomy.Build(s.tbox.Factory, s.named, rep, children)
}

// K shapes for randomPhase3State.
const (
	shapeClosed   = iota // transitively closed rows
	shapeReduced         // the DAG's edges plus part of the closure, as pruning leaves K
	shapeOneSided        // reduced rows plus stray bits: one-sided cycles, as degraded tests leave K
	shapeNoise           // random bits of a random density
	numShapes
)

// randomPhase3State returns a state over n concepts (⊤ last) whose K and
// satisfiability states have the given shape. The concepts are grouped
// into classes on a random class DAG: in half the states every class has
// one member, as is common, in the others concepts share classes. A few
// concepts are unsatisfiable.
func randomPhase3State(rng *rand.Rand, n, shape int) *state {
	tb := dl.NewTBox("phase3")
	for i := 0; i < n-1; i++ {
		tb.Declare(fmt.Sprintf("C%03d", i))
	}
	s := newState(tb, nil, true)
	top := n - 1
	for x := 0; x < n; x++ {
		s.satState[x].Store(satYes)
		s.K[x].ClearAll()
	}
	// Classes: concept x joins class cls[x]; classes are numbered in a
	// topological order of the class DAG (parents before children), ⊤'s
	// class first.
	classes, cls := n, rng.Perm(n)
	if rng.Intn(2) == 0 {
		classes = 1 + rng.Intn(n)
		for x := range cls {
			cls[x] = rng.Intn(classes)
		}
	} else {
		i := slices.Index(cls, 0)
		cls[i] = cls[top]
	}
	cls[top] = 0
	parents := make([][]int, classes)
	for c := 1; c < classes; c++ {
		for k := rng.Intn(4); k > 0; k-- {
			parents[c] = append(parents[c], rng.Intn(c))
		}
	}
	// below[c]: every class strictly below class c.
	below := make([]*bitset.Set, classes)
	for c := range below {
		below[c] = bitset.New(classes)
	}
	for c := classes - 1; c >= 1; c-- {
		for _, p := range parents[c] {
			below[p].Set(c)
			below[p].Union(below[c])
		}
	}
	density := 1 + rng.Intn(2*n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x == y {
				continue
			}
			mutual := cls[x] == cls[y]
			strict := below[cls[x]].Test(cls[y])
			switch shape {
			case shapeClosed:
				if mutual || strict || x == top {
					s.K[x].Set(y)
				}
			case shapeReduced, shapeOneSided:
				edge := slices.Contains(parents[cls[y]], cls[x])
				if mutual || edge || (strict || x == top) && rng.Intn(3) == 0 {
					s.K[x].Set(y)
				}
				if shape == shapeOneSided && rng.Intn(4*n) == 0 {
					s.K[x].Set(y)
				}
			case shapeNoise:
				if rng.Intn(density) == 0 {
					s.K[x].Set(y)
				}
			}
		}
	}
	for x := 0; x < top; x++ {
		if rng.Intn(12) == 0 {
			s.satState[x].Store(satNo)
		}
	}
	return s
}

// TestQuickPhase3MatchesPerBit checks the word-parallel phase 3 against
// the per-bit reference on random K matrices of every shape, sizes that
// end inside, at and just past 64-bit words: the same classes, closed
// rows and direct children, the same Render and Fingerprint (or the same
// Build error), at one and three workers, and s.K left untouched. The
// hierarchy phase 3 returns goes through a finished checkpoint, decoded
// and built again, to the same Render.
func TestQuickPhase3MatchesPerBit(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 257} {
		for shape := 0; shape < numShapes; shape++ {
			check := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				s := randomPhase3State(rng, n, shape)
				name := fmt.Sprintf("n=%d shape=%d seed=%d", n, shape, seed)
				before := make([]*bitset.Set, n)
				for x := range before {
					before[x] = s.K[x].Snapshot()
				}

				wantKC, wantRep := refContract(s)
				gotKC := s.loadK()
				gotRep := contractRows(gotKC)
				if !slices.Equal(gotRep, wantRep) {
					t.Errorf("%s: representatives %v, want %v", name, gotRep, wantRep)
					return false
				}
				if !sameRows(gotKC, wantKC) {
					t.Errorf("%s: contracted rows differ", name)
					return false
				}
				refCloseRows(wantKC)
				closeRows(gotKC)
				if !sameRows(gotKC, wantKC) {
					t.Errorf("%s: closed rows differ", name)
					return false
				}
				gotBelow, wantBelow := bitset.New(n), bitset.New(n)
				for x, row := range gotKC {
					if row == nil {
						continue
					}
					got, want := directChildren(row, gotKC, gotBelow), refDirectChildren(wantKC[x], wantKC, wantBelow)
					if !slices.Equal(got, want) {
						t.Errorf("%s: direct children of %d = %v, want %v", name, x, got, want)
						return false
					}
				}

				want, wantErr := refBuildTaxonomy(s)
				for _, workers := range []int{1, 3} {
					p := newPool(workers, RoundRobin, &s.count.Steals)
					got, h, err := s.buildTaxonomy(p, nil, nil)
					p.close()
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Errorf("%s workers=%d: error %v, want %v", name, workers, err, wantErr)
						return false
					}
					if err != nil {
						continue
					}
					if got.Render() != want.Render() || got.Fingerprint() != want.Fingerprint() {
						t.Errorf("%s workers=%d: taxonomy differs:\n%s\nwant:\n%s", name, workers, got.Render(), want.Render())
						return false
					}
					snap := s.snapshot(PhaseHierarchy, 0)
					snap.hierarchy = h
					dec, err := decodeSnapshot(snap.encode())
					if err == nil {
						var res *Result
						if res, err = dec.adopt(s.tbox, true, 1, false); err == nil && res.Taxonomy.Render() != want.Render() {
							err = fmt.Errorf("taxonomy differs:\n%s", res.Taxonomy.Render())
						}
					}
					if err != nil {
						t.Errorf("%s workers=%d: finished checkpoint: %v", name, workers, err)
						return false
					}
				}
				for x := range before {
					if !s.K[x].Snapshot().Equal(before[x]) {
						t.Errorf("%s: phase 3 wrote K[%d]", name, x)
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatalf("n=%d shape=%d: %v", n, shape, err)
			}
		}
	}
}

// sameRows reports whether two row lists are nil at the same indexes
// and equal elsewhere.
func sameRows(a, b []*bitset.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || a[i] != nil && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// BenchmarkBuildTaxonomy times phase 3 alone on perfbench classify-el's
// corpus, WBbt at 1/3 scale: K comes from the EL prepass, which decides
// every pair of this corpus as a default-pipeline run does, and each
// iteration builds the taxonomy from it on a pool of GOMAXPROCS workers.
//
//	go test -run '^$' -bench BuildTaxonomy -benchmem ./internal/core/
func BenchmarkBuildTaxonomy(b *testing.B) {
	p, ok := ontogen.ByName("WBbt.obo")
	if !ok {
		b.Fatal("profile missing")
	}
	tb, err := ontogen.Mini(p, 3).Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := el.New(tb, el.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := newState(tb, r, true)
	pool := newPool(runtime.GOMAXPROCS(0), RoundRobin, &s.count.Steals)
	defer pool.close()
	s.runPrepass(pool, pool.workers, newFragment(tb, pool.workers), nil, nil)
	if rem := s.remainingPossible(); rem != 0 {
		b.Fatalf("the prepass left %d possible pairs", rem)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.buildTaxonomy(pool, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
