package el

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parowl/internal/dl"
	"parowl/internal/ontogen"
)

// oracle is a naive sequential fixpoint of the completion rules over the
// same normalized indexes the saturation reads, sharing none of its code:
// plain bool matrices and one global list of links, swept whole, rule by
// rule, until a sweep adds nothing. It derives every link, of live and
// dead roles alike, and decides liveness its own way (liveRoles). A fact
// the concurrent saturation loses to a race, or derives without cause,
// shows up as a row mismatch.
type oracle struct {
	n       *normalized
	in      [][]bool  // in[a][c]: c ∈ S(a)
	members [][]atom  // S(a) in insertion order
	links   [][3]atom // (a, r, b)
	linked  map[[3]atom]bool
	out     [][]int // out[a]: indices into links of the links leaving a
	live    []bool  // live[r]: some rule reads r's links
	changed bool
}

func newOracle(n *normalized) *oracle {
	o := &oracle{
		n:       n,
		in:      make([][]bool, n.numAtoms),
		members: make([][]atom, n.numAtoms),
		linked:  map[[3]atom]bool{},
		out:     make([][]int, n.numAtoms),
		live:    liveRoles(n),
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

// liveRoles is the oracle's own reading of the live-role rule, sharing no
// code with finishIndexes: every role once some normal axiom puts ⊥ on
// its right or as an ∃ filler, otherwise the roles from which direct
// super-role steps (n.supers, not Role.IsSubRoleOf) reach a role with an
// ∃ on a left side, by a fixpoint that ends on cyclic hierarchies.
func liveRoles(n *normalized) []bool {
	live := make([]bool, n.numRoles)
	bottom := false
	for a := range n.numAtoms {
		bottom = bottom || slices.Contains(n.subs[a], atomBottom)
		for _, ra := range n.exRHS[a] {
			bottom = bottom || ra.a == atomBottom
		}
	}
	for _, rhs := range n.conj {
		bottom = bottom || slices.Contains(rhs, atomBottom)
	}
	for r, idx := range n.exLHS {
		live[r] = len(idx) > 0
		for _, rhs := range idx {
			bottom = bottom || slices.Contains(rhs, atomBottom)
		}
	}
	if bottom {
		for r := range live {
			live[r] = true
		}
		return live
	}
	for changed := true; changed; {
		changed = false
		for r, sups := range n.supers {
			for _, s := range sups {
				if live[s] && !live[r] {
					live[r], changed = true, true
				}
			}
		}
	}
	return live
}

// check compares every subsumer row of s with the oracle's, then its
// stored links with the oracle's links of live roles: each stored link
// must be one the oracle derived, of a live role, and none of a live
// role may be missing.
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
	stored := 0
	for b := range s.links {
		for _, l := range s.links[b].preds.lists() {
			for _, a := range l.load() {
				stored++
				if !o.live[l.role] {
					t.Fatalf("%s: link (%d, %d, %d) of dead role stored", name, a, l.role, b)
				}
				if !o.linked[[3]atom{a, l.role, atom(b)}] {
					t.Fatalf("%s: link (%d, %d, %d) not derived by the oracle", name, a, l.role, b)
				}
			}
		}
	}
	want := 0
	for _, l := range o.links {
		if o.live[l[1]] {
			want++
		}
	}
	if stored != want {
		t.Fatalf("%s: %d links stored, oracle %d of live roles", name, stored, want)
	}
}

// storedLinks counts the links s stored.
func storedLinks(s *saturation) int {
	k := 0
	for b := range s.links {
		for _, l := range s.links[b].preds.lists() {
			k += len(l.load())
		}
	}
	return k
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
	// Without ⊥ a role's links live only at or below a role with an ∃ on
	// a left side (randomELTBox puts some there), so these mix live and
	// dead roles.
	for seed := int64(40); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		strict(fmt.Sprintf("random-no-bottom/%d", seed), randomELTBox(rng, 4+rng.Intn(10), 4+rng.Intn(12)))
	}
	for _, c := range liveRoleCases() {
		strict("live/"+c.name, c.tbox())
	}
	for _, c := range pureCases() {
		strict("pure/"+c.name, c.tbox())
	}
	// The concept factory folds ∃r.⊥ into ⊥, so ⊥ as an ∃-right filler
	// exists only as a normal form: A ⊑ ∃r.⊥, B ⊑ ∃r.A, C ⊑ ∃s.B, and no
	// ∃ on a left side. CR5 must carry ⊥ back to A, B and C.
	cases = append(cases, oracleCase{"live/bottom-only-as-filler", func(o Options) *Reasoner {
		tb := dl.NewTBox("bottom-only-as-filler")
		f := tb.Factory
		r, s := f.Role("r"), f.Role("s")
		a, b, c := tb.Declare("A"), tb.Declare("B"), tb.Declare("C")
		tb.Freeze()
		bl := newBuilder(tb)
		bl.addExRHS(bl.atomFor(a), r.ID, atomBottom)
		bl.addExRHS(bl.atomFor(b), r.ID, bl.atomFor(a))
		bl.addExRHS(bl.atomFor(c), s.ID, bl.atomFor(b))
		bl.n.numAtoms = len(bl.n.conceptOf)
		bl.n.finishIndexes()
		return &Reasoner{tbox: tb, n: bl.n, opts: o}
	}})
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

// liveRoleCase is a small TBox over concepts A–D and roles r, s, t
// (interned in that order, so their IDs ascend) that pins one clause of
// the live-role rule, with the roles it leaves live.
type liveRoleCase struct {
	name  string
	axiom func(tb *dl.TBox, f *dl.Factory, a, b, c, d *dl.Concept, r, s, t *dl.Role)
	live  string // the live roles' names
}

func (c liveRoleCase) tbox() *dl.TBox {
	tb := dl.NewTBox(c.name)
	f := tb.Factory
	a, b, cc, d := tb.Declare("A"), tb.Declare("B"), tb.Declare("C"), tb.Declare("D")
	r, s, t := f.Role("r"), f.Role("s"), f.Role("t")
	c.axiom(tb, f, a, b, cc, d, r, s, t)
	return tb
}

func liveRoleCases() []liveRoleCase {
	return []liveRoleCase{
		{"exists-left-under-one-of-two", func(tb *dl.TBox, f *dl.Factory, a, b, c, d *dl.Concept, r, s, _ *dl.Role) {
			tb.SubClassOf(a, f.Some(r, b))
			tb.SubClassOf(a, f.Some(s, b)) // s is dead: its link is derived, never stored
			tb.SubClassOf(b, d)
			tb.SubClassOf(f.Some(r, d), c)
		}, "r"},
		{"sub-role-of-live-role", func(tb *dl.TBox, f *dl.Factory, a, b, c, _ *dl.Concept, r, s, t *dl.Role) {
			tb.SubObjectPropertyOf(s, r)
			tb.SubClassOf(a, f.Some(s, b)) // (A, s, B) gives (A, r, B), so C ∈ S(A)
			tb.SubClassOf(f.Some(r, b), c)
			tb.SubClassOf(a, f.Some(t, b))
		}, "rs"},
		{"cycle-below-live-role", func(tb *dl.TBox, f *dl.Factory, a, b, c, _ *dl.Concept, r, s, t *dl.Role) {
			// r ⊑ s ⊑ r, and only r steps up to t: s is live through r,
			// whose ID is smaller, around the cycle.
			tb.SubObjectPropertyOf(r, s)
			tb.SubObjectPropertyOf(s, r)
			tb.SubObjectPropertyOf(r, t)
			tb.SubClassOf(a, f.Some(s, b))
			tb.SubClassOf(f.Some(t, b), c)
		}, "rst"},
		{"transitive-dead-role", func(tb *dl.TBox, f *dl.Factory, a, b, c, d *dl.Concept, r, s, t *dl.Role) {
			// r is live, its transitive super-role t is dead: r's links
			// are stored, t's materialised and composed ones are not.
			tb.SubObjectPropertyOf(r, t)
			tb.TransitiveObjectProperty(t)
			tb.TransitiveObjectProperty(s)
			tb.SubClassOf(a, f.Some(r, d))
			tb.SubClassOf(d, f.Some(r, b))
			tb.SubClassOf(f.Some(r, b), c)
			tb.SubClassOf(a, f.Some(s, d))
			tb.SubClassOf(d, f.Some(s, b))
		}, "r"},
		{"bottom-only-by-subs", func(tb *dl.TBox, f *dl.Factory, a, b, c, _ *dl.Concept, r, s, _ *dl.Role) {
			// No ∃ on a left side, but A ⊑ ⊥ makes every role live: CR5
			// carries ⊥ back along (B, r, A) and (C, s, B).
			tb.SubClassOf(a, f.Bottom())
			tb.SubClassOf(b, f.Some(r, a))
			tb.SubClassOf(c, f.Some(s, b))
		}, "rst"},
	}
}

// pureCase is a small TBox that pins one corner of the pure-atom
// closure, with its pure named concepts. Its axioms declare concepts by
// name, in the order NamedConcepts lists them.
type pureCase struct {
	name   string
	axioms func(tb *dl.TBox, f *dl.Factory, c func(string) *dl.Concept)
	pure   string // the pure named concepts' names
}

func (pc pureCase) tbox() *dl.TBox {
	tb := dl.NewTBox(pc.name)
	pc.axioms(tb, tb.Factory, tb.Declare)
	return tb
}

func pureCases() []pureCase {
	return []pureCase{
		{"equivalent-cycle", func(tb *dl.TBox, f *dl.Factory, c func(string) *dl.Concept) {
			// A ≡ B ≡ C is one component with L and M below it and H
			// above; I reaches it from an impure context through CR1.
			tb.SubClassOf(c("L"), c("A"))
			tb.EquivalentClasses(c("A"), c("B"))
			tb.EquivalentClasses(c("B"), c("C"))
			tb.SubClassOf(c("C"), c("H"))
			tb.SubClassOf(c("M"), c("B"))
			r := f.Role("r")
			tb.SubClassOf(c("I"), f.And(c("A"), f.Some(r, c("K"))))
			tb.SubClassOf(f.Some(r, c("K")), c("J"))
		}, "LABCHMJ"},
		{"top-sub-pure", func(tb *dl.TBox, f *dl.Factory, c func(string) *dl.Concept) {
			// Every row, pure or not, holds ⊤'s told closure {⊤, X, Y}.
			tb.SubClassOf(f.Top(), c("X"))
			tb.SubClassOf(c("X"), c("Y"))
			tb.SubClassOf(c("A"), c("B"))
			r := f.Role("r")
			tb.SubClassOf(c("C"), f.Some(r, c("D")))
			tb.SubClassOf(f.Some(r, c("D")), c("E"))
		}, "XYABE"},
		{"top-sub-impure", func(tb *dl.TBox, f *dl.Factory, c func(string) *dl.Concept) {
			// X ⊑ ∃r.Y under a live r is in every atom's told closure.
			r := f.Role("r")
			tb.SubClassOf(f.Top(), c("X"))
			tb.SubClassOf(c("X"), f.Some(r, c("Y")))
			tb.SubClassOf(f.Some(r, c("Y")), c("Z"))
			tb.SubClassOf(c("A"), c("B"))
		}, ""},
		{"reached-from-impure", func(tb *dl.TBox, f *dl.Factory, c func(string) *dl.Concept) {
			// The impure C derives pure atoms by CR1 (P), as a CR2 right
			// side (the fresh atom of E ⊓ F, then R) and as a CR4 right
			// side (the fresh atom of ∃r.D, then T); each brings its
			// told subsumer along.
			r := f.Role("r")
			tb.SubClassOf(c("C"), f.And(c("P"), c("E"), c("F"), f.Some(r, c("D"))))
			tb.SubClassOf(c("P"), c("Q"))
			tb.SubClassOf(f.And(c("E"), c("F")), c("R"))
			tb.SubClassOf(c("R"), c("S"))
			tb.SubClassOf(f.Some(r, c("D")), c("T"))
			tb.SubClassOf(c("T"), c("U"))
		}, "PQRSTU"},
		{"chain-to-impure", func(tb *dl.TBox, f *dl.Factory, c func(string) *dl.Concept) {
			// A, B and C are told-only, yet their chain ends in I, which
			// has a live ∃ on its right: none of them is pure.
			r := f.Role("r")
			tb.SubClassOf(c("A"), c("B"))
			tb.SubClassOf(c("B"), c("C"))
			tb.SubClassOf(c("C"), c("I"))
			tb.SubClassOf(c("I"), f.Some(r, c("J")))
			tb.SubClassOf(f.Some(r, c("J")), c("K"))
			tb.SubClassOf(c("Q"), c("P"))
		}, "KQP"},
	}
}

// toldOnlyAtoms is the oracle's own reading of told-only, sharing no code
// with finishIndexes: every atom but ⊥ that is no operand of a
// conjunction (n.conj's keys), no filler of an ∃ on a left side
// (n.exLHS's keys) and on the left of no ∃ of a live role.
func toldOnlyAtoms(n *normalized, live []bool) []bool {
	told := make([]bool, n.numAtoms)
	for a := range told {
		told[a] = atom(a) != atomBottom
	}
	for k := range n.conj {
		told[atom(k>>32)], told[atom(uint32(k))] = false, false
	}
	for _, idx := range n.exLHS {
		for b := range idx {
			told[b] = false
		}
	}
	for a, ras := range n.exRHS {
		for _, ra := range ras {
			if live[ra.role] {
				told[a] = false
			}
		}
	}
	return told
}

// TestPureAtoms checks the pure marks of every oracle case against the
// oracle: A is pure iff every member of the oracle's S(A) is told-only
// under the oracle's liveRoles. The hand-built cases pin their pure
// names, and two corpora their counts: in WBbt/8 every atom but ⊥ is
// pure, in the nskisimple/3 fragment 51 of 651 atoms are (480 told-only).
func TestPureAtoms(t *testing.T) {
	pinned := map[string][3]int{ // pure, atoms, told-only
		"WBbt.obo/8":                       {849, 850, 849},
		"nskisimple_functional/3 fragment": {51, 651, 480},
	}
	for _, c := range oracleCases(t) {
		r := c.new(Options{})
		if err := r.SaturateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		n := r.n
		o := newOracle(n)
		told := toldOnlyAtoms(n, o.live)
		pure, toldCount := 0, 0
		for a := range n.numAtoms {
			want := !slices.ContainsFunc(o.members[a], func(m atom) bool { return !told[m] })
			if n.pure[a] != want {
				t.Errorf("%s: atom %d pure = %v, oracle %v", c.name, a, n.pure[a], want)
			}
			if want {
				pure++
			}
			if told[a] {
				toldCount++
			}
		}
		if w, ok := pinned[c.name]; ok {
			if got := [3]int{pure, n.numAtoms, toldCount}; got != w {
				t.Errorf("%s: %d of %d atoms pure, %d told-only; want %v", c.name, pure, n.numAtoms, toldCount, w)
			}
			delete(pinned, c.name)
		}
	}
	for _, pc := range pureCases() {
		r, err := New(pc.tbox(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SaturateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		var names string
		for i, c := range r.tbox.NamedConcepts() {
			if r.n.pure[namedAtom(i)] {
				names += c.Name
			}
		}
		if names != pc.pure {
			t.Errorf("%s: pure concepts %q, want %q", pc.name, names, pc.pure)
		}
	}
	if !testing.Short() && len(pinned) > 0 {
		t.Errorf("cases not found: %v", pinned)
	}
}

// TestLiveRoles checks which roles each hand-built case leaves live, and
// which links two corpora store: WBbt/8 has no ∃ on a left side and no
// ⊥, so it stores none of the links the oracle derives; the nskisimple/3
// fragment derives ⊥, so it keeps all of them.
func TestLiveRoles(t *testing.T) {
	for _, c := range liveRoleCases() {
		r, err := New(c.tbox(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SaturateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		var live string
		for _, role := range r.tbox.Factory.Roles() {
			if r.n.live[role.ID] {
				live += role.Name
			}
		}
		if live != c.live {
			t.Errorf("%s: live roles %q, want %q", c.name, live, c.live)
		}
	}
	if testing.Short() {
		return
	}
	for _, tc := range []struct {
		profile  string
		scale    int
		keepsAll bool
	}{{"WBbt.obo", 8, false}, {"nskisimple_functional", 3, true}} {
		p, ok := ontogen.ByName(tc.profile)
		if !ok {
			t.Fatalf("profile %q not found", tc.profile)
		}
		tb, err := ontogen.Mini(p, tc.scale).Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := NewFragment(tb, Options{})
		if err := r.SaturateContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		derived, stored := len(newOracle(r.n).links), storedLinks(r.sat.Load())
		want := 0
		if tc.keepsAll {
			want = derived
		}
		if derived == 0 || stored != want {
			t.Errorf("%s/%d: %d links stored of %d derived, want %d", tc.profile, tc.scale, stored, derived, want)
		}
	}
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
