package el

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"parowl/internal/dl"
	"parowl/internal/ontogen"
)

// oracle is a naive sequential fixpoint of the completion rules over the
// same normalized indexes the saturation reads, sharing none of its code:
// plain bool matrices and one global list of links, swept whole, rule by
// rule, until a sweep adds nothing. A fact the concurrent saturation
// loses to a race, or derives without cause, shows up as a row mismatch.
type oracle struct {
	n       *normalized
	in      [][]bool  // in[a][c]: c ∈ S(a)
	members [][]atom  // S(a) in insertion order
	links   [][3]atom // (a, r, b)
	linked  map[[3]atom]bool
	out     [][]int // out[a]: indices into links of the links leaving a
	changed bool
}

func newOracle(n *normalized) *oracle {
	o := &oracle{
		n:       n,
		in:      make([][]bool, n.numAtoms),
		members: make([][]atom, n.numAtoms),
		linked:  map[[3]atom]bool{},
		out:     make([][]int, n.numAtoms),
	}
	for a := range o.in {
		o.in[a] = make([]bool, n.numAtoms)
		o.add(atom(a), atom(a))
		o.add(atom(a), atomTop)
	}
	for o.changed {
		o.changed = false
		o.sweep()
	}
	return o
}

func (o *oracle) add(a, c atom) {
	if !o.in[a][c] {
		o.in[a][c] = true
		o.members[a] = append(o.members[a], c)
		o.changed = true
	}
}

func (o *oracle) link(a atom, r int32, b atom) {
	k := [3]atom{a, r, b}
	if !o.linked[k] {
		o.linked[k] = true
		o.out[a] = append(o.out[a], len(o.links))
		o.links = append(o.links, k)
		o.changed = true
	}
}

// sweep applies every rule to every fact once.
func (o *oracle) sweep() {
	n := o.n
	for a := range o.members {
		a := atom(a)
		for i := 0; i < len(o.members[a]); i++ {
			c := o.members[a][i]
			for _, d := range n.subs[c] { // CR1
				o.add(a, d)
			}
			for _, e := range n.conjByLeft[c] { // CR2
				if o.in[a][e.other] {
					o.add(a, e.rhs)
				}
			}
			for _, ra := range n.exRHS[c] { // CR3
				o.link(a, ra.role, ra.a)
			}
		}
	}
	for i := 0; i < len(o.links); i++ {
		a, r, b := o.links[i][0], o.links[i][1], o.links[i][2]
		for c, ds := range n.exLHS[r] { // CR4
			if o.in[b][c] {
				for _, d := range ds {
					o.add(a, d)
				}
			}
		}
		if o.in[b][atomBottom] { // CR5
			o.add(a, atomBottom)
		}
		for _, s := range n.supers[r] { // role hierarchy
			o.link(a, s, b)
		}
		if n.transitive[r] { // CR11
			for _, j := range o.out[b] {
				if next := o.links[j]; next[1] == r {
					o.link(a, r, next[2])
				}
			}
		}
	}
}

// check compares every subsumer row and every predecessor list of s with
// the oracle's.
func (o *oracle) check(t *testing.T, name string, s *saturation) {
	t.Helper()
	for a := 0; a < o.n.numAtoms; a++ {
		want := make([]uint64, s.words)
		for _, c := range o.members[a] {
			want[c/64] |= 1 << (c % 64)
		}
		for i, w := range want {
			if got := s.row(atom(a))[i].Load(); got != w {
				t.Fatalf("%s: S(%d) word %d = %#x, oracle %#x", name, a, i, got, w)
			}
		}
	}
	preds := 0
	for b := range s.links {
		for _, l := range s.links[b].preds.lists() {
			for _, a := range l.load() {
				preds++
				if !o.linked[[3]atom{a, l.role, atom(b)}] {
					t.Fatalf("%s: link (%d, %d, %d) not derived by the oracle", name, a, l.role, b)
				}
			}
		}
	}
	if preds != len(o.links) {
		t.Fatalf("%s: %d links, oracle %d", name, preds, len(o.links))
	}
}

// oracleCase is one saturation input: a reasoner factory, so every worker
// count starts from a fresh, unsaturated reasoner.
type oracleCase struct {
	name string
	new  func(Options) *Reasoner
}

func oracleCases(t *testing.T) []oracleCase {
	var cases []oracleCase
	strict := func(name string, tb *dl.TBox) {
		cases = append(cases, oracleCase{name, func(o Options) *Reasoner {
			r, err := New(tb, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return r
		}})
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := randomELTBox(rng, 4+rng.Intn(10), 4+rng.Intn(12))
		// ⊥ by disjointness, which CR5 pulls back along an r-link.
		f, names := tb.Factory, tb.NamedConcepts()
		a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		if a != b {
			tb.DisjointClasses(a, b)
			tb.SubClassOf(names[rng.Intn(len(names))], f.Some(f.Role("r"), f.And(a, b)))
		}
		strict(fmt.Sprintf("random/%d", seed), tb)
	}
	if testing.Short() {
		return cases
	}
	for _, p := range ontogen.TableIV {
		tb, err := ontogen.Mini(p, 8).Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		strict(p.Name+"/8", tb)
	}
	for _, name := range []string{"nskisimple_functional", "rnao_functional"} {
		p, ok := ontogen.ByName(name)
		if !ok {
			t.Fatalf("profile %q not found", name)
		}
		tb, err := ontogen.Mini(p, 3).Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, oracleCase{name + "/3 fragment", func(o Options) *Reasoner {
			r, _ := NewFragment(tb, o)
			return r
		}})
	}
	return cases
}

// TestSaturationMatchesOracle checks the concurrent saturation row for row
// against the sequential oracle at several worker counts, and again when
// a saturation was cancelled first and the next query saturates anew.
func TestSaturationMatchesOracle(t *testing.T) {
	aborted := 0
	for _, c := range oracleCases(t) {
		ref := c.new(Options{})
		if err := ref.SaturateContext(context.Background()); err != nil { // New normalizes here
			t.Fatal(err)
		}
		o := newOracle(ref.n)
		for _, w := range []int{1, 2, 4, 8} {
			r := c.new(Options{Workers: w})
			if err := r.SaturateContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			o.check(t, fmt.Sprintf("%s workers=%d", c.name, w), r.sat.Load())
		}
		r := c.new(Options{Workers: 4})
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		if r.SaturateContext(ctx) != nil { // else it finished before the cancel landed
			aborted++
			if r.sat.Load() != nil {
				t.Fatalf("%s: aborted saturation was published", c.name)
			}
			if r.SaturateContext(ctx) == nil {
				t.Fatalf("%s: saturation under a cancelled context succeeded", c.name)
			}
		}
		if err := r.SaturateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		o.check(t, c.name+" after cancel", r.sat.Load())
	}
	t.Logf("%d saturations stopped by their cancelled context", aborted)
}
