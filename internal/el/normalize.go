// Package el implements a completion-rule saturation reasoner for ELH
// with transitive roles (EL+ / ELH+ in the paper's Table IV naming),
// in the style of CEL and ELK — the system the paper cites as the
// state of the art in concurrent classification of EL ontologies
// (Kazakov et al., "Concurrent classification of EL ontologies").
//
// The reasoner normalizes the TBox into the four EL normal forms,
// saturates subsumer sets S(A) and role links R(r) under the completion
// rules with a pool of workers, and then answers satisfiability and
// subsumption queries over named concepts by lookup. Links exist only
// for live roles, those whose links some rule reads (see
// normalized.live). A pure atom, one whose told closure fires no rule but
// CR1 (see normalized.pure), gets its row from that closure, a word at a
// time, before the workers start. Queries read the S(A) rows alone.
package el

import (
	"fmt"
	"slices"

	"parowl/internal/dl"
)

// atom is a dense index for a named concept, ⊤, ⊥, or a fresh
// normalization name.
type atom = int32

const (
	atomTop    atom = 0
	atomBottom atom = 1
)

// namedAtom is the atom of the i-th concept of TBox.NamedConcepts():
// newBuilder numbers them in that order right after ⊤ and ⊥.
func namedAtom(i int) atom { return atom(i + 2) }

// notELError is New's error when the TBox uses constructors outside
// EL(H+): anything but ⊤, ⊥, names, ⊓ and ∃.
type notELError struct{ c *dl.Concept }

func (e *notELError) Error() string {
	return fmt.Sprintf("el: concept %v outside the EL fragment", e.c)
}

// normalized is the indexed normal-form TBox the saturation consumes.
// All fields are read-only after newNormalizedFragment returns.
type normalized struct {
	tbox     *dl.TBox
	numAtoms int
	numRoles int

	// atomByID maps the Concept.ID of each named concept, ⊤ and ⊥ to its
	// atom; every other ID below its length holds atomTop, so a lookup
	// must check conceptOf[a] (see Reasoner.atomQuery). conceptOf is the
	// inverse for non-fresh atoms (nil entries are fresh names).
	atomByID  []atom
	conceptOf []*dl.Concept

	// Normal-form axiom indexes.
	subs        [][]atom          // subs[A] = {B | A ⊑ B}
	conj        map[int64][]atom  // conj[pair(A1,A2)] = {B | A1 ⊓ A2 ⊑ B}
	conjByLeft  [][]conjEntry     // conjByLeft[A1] = {(A2, B)}
	exRHS       [][]roleAtom      // exRHS[A] = {(r,B) | A ⊑ ∃r.B}
	exLHS       []map[atom][]atom // exLHS[r][B] = {C | ∃r.B ⊑ C}
	exLHSFiller [][]roleAtom      // exLHSFiller[B] = {(r,C) | ∃r.B ⊑ C}
	// exLHSMask[r] is the bit row over atoms of the keys of exLHS[r], nil
	// when r has none: CR4 scans S(B) ∩ exLHSMask[r] word by word.
	exLHSMask [][]uint64

	transitive []bool    // transitive[r]
	supers     [][]int32 // direct super-roles per role

	// Side conditions, derived from the complete indexes above by
	// finishIndexes. live[r]: some rule reads the links of role r, so
	// the saturation stores them; a dead role's links are never stored.
	// toldOnly[C]: C ∈ S(A) triggers no rule but CR1. pure[A]: every atom
	// of A's told closure (CR1 from {A, ⊤} over subs) is told-only, so
	// that closure is all of S(A). pureOrder lists the pure atoms by
	// strongly connected component of the told graph (A → B for each
	// B ∈ subs[A]), each component ending at the next pureEnds offset,
	// components in reverse topological order: every told subsumer
	// outside a component lies in an earlier one.
	live      []bool
	toldOnly  []bool
	pure      []bool
	pureOrder []atom
	pureEnds  []int32
}

type conjEntry struct {
	other atom
	rhs   atom
}

type roleAtom struct {
	role int32
	a    atom
}

func pairKey(a, b atom) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(uint32(b))
}

// builder carries the mutable state of normalization.
type builder struct {
	n     *normalized
	fresh map[*dl.Concept]atom // structural cache for introduced names
}

// Coverage reports how much of a TBox the lenient fragment normalization
// retained. Kept + Weakened + Dropped equals the number of class-axiom
// GCIs examined; role axioms (hierarchy, transitivity) are always kept.
type Coverage struct {
	Kept     int // GCIs retained in full
	Weakened int // GCIs retained partially (some right-side conjuncts dropped)
	Dropped  int // GCIs discarded entirely
}

// Complete reports whether the fragment is logically equivalent to the
// full TBox, i.e. nothing was weakened or dropped.
func (c Coverage) Complete() bool { return c.Weakened == 0 && c.Dropped == 0 }

func (c Coverage) String() string {
	return fmt.Sprintf("kept %d, weakened %d, dropped %d", c.Kept, c.Weakened, c.Dropped)
}

// newBuilder indexes the TBox's named concepts and roles.
func newBuilder(t *dl.TBox) *builder {
	f := t.Factory
	n := &normalized{
		tbox: t,
		conj: make(map[int64][]atom),
	}
	n.conceptOf = append([]*dl.Concept{f.Top(), f.Bottom()}, t.NamedConcepts()...)
	maxID := f.Bottom().ID
	for _, c := range t.NamedConcepts() {
		maxID = max(maxID, c.ID)
	}
	n.atomByID = make([]atom, maxID+1)
	for a, c := range n.conceptOf {
		n.atomByID[c.ID] = atom(a)
	}
	n.numRoles = f.NumRoles()
	n.transitive = make([]bool, n.numRoles)
	n.supers = make([][]int32, n.numRoles)
	for _, r := range f.Roles() {
		n.transitive[r.ID] = r.Transitive
		for _, s := range r.Supers() {
			n.supers[r.ID] = append(n.supers[r.ID], s.ID)
		}
	}
	return &builder{n: n, fresh: make(map[*dl.Concept]atom)}
}

// newNormalizedFragment lowers the EL-expressible subset of the TBox
// into EL normal forms, silently weakening or dropping axioms that leave
// the fragment. Every emitted normal axiom is entailed by the full TBox,
// so any consequence of the fragment is a consequence of the TBox (a
// sound lower bound); the converse holds only when the returned coverage
// is Complete, as it is for a TBox inside EL.
func newNormalizedFragment(t *dl.TBox) (*normalized, Coverage) {
	b := newBuilder(t)
	var cov Coverage
	for _, gci := range t.AsGCIs() {
		kept, dropped := b.axiomLenient(gci.Sub, gci.Sup)
		switch {
		case dropped == 0:
			cov.Kept++
		case kept == 0:
			cov.Dropped++
		default:
			cov.Weakened++
		}
	}
	n := b.n
	n.numAtoms = len(n.conceptOf)
	n.finishIndexes()
	return n, cov
}

// checkEL verifies c stays inside EL(⊥).
func checkEL(c *dl.Concept) error {
	switch c.Op {
	case dl.OpTop, dl.OpBottom, dl.OpName:
		return nil
	case dl.OpAnd, dl.OpSome:
		for _, a := range c.Args {
			if err := checkEL(a); err != nil {
				return err
			}
		}
		return nil
	default:
		return &notELError{c}
	}
}

// newAtom allocates a fresh normalization name.
func (b *builder) newAtom() atom {
	a := atom(len(b.n.conceptOf))
	b.n.conceptOf = append(b.n.conceptOf, nil)
	return a
}

// atomFor returns the atom of an atomic concept of the TBox.
func (b *builder) atomFor(c *dl.Concept) atom {
	return b.n.atomByID[c.ID]
}

// leftChecked lowers concept c, which checkEL accepted, occurring on the
// left of ⊑ to a single atom X with c ⊑ X entailed by the emitted normal
// axioms.
func (b *builder) leftChecked(c *dl.Concept) atom {
	switch c.Op {
	case dl.OpTop, dl.OpBottom, dl.OpName:
		return b.atomFor(c)
	}
	if a, ok := b.fresh[c]; ok {
		return a
	}
	var out atom
	switch c.Op {
	case dl.OpAnd:
		atoms := make([]atom, len(c.Args))
		for i, arg := range c.Args {
			atoms[i] = b.leftChecked(arg)
		}
		// Chain binary conjunctions: A1 ⊓ A2 ⊑ X12, X12 ⊓ A3 ⊑ X, ...
		cur := atoms[0]
		for i := 1; i < len(atoms); i++ {
			x := b.newAtom()
			b.addConj(cur, atoms[i], x)
			cur = x
		}
		out = cur
	case dl.OpSome:
		filler := b.leftChecked(c.Args[0])
		x := b.newAtom()
		b.addExLHS(c.Role.ID, filler, x)
		out = x
	default:
		panic("el: leftChecked on non-EL concept")
	}
	b.fresh[c] = out
	return out
}

// axiomChecked lowers one GCI sub ⊑ sup, both sides accepted by
// checkEL, into normal forms.
func (b *builder) axiomChecked(sub, sup *dl.Concept) {
	// Split conjunctions on the right.
	if sup.Op == dl.OpAnd {
		for _, arg := range sup.Args {
			b.axiomChecked(sub, arg)
		}
		return
	}
	// ∃r.D with complex D on the right: introduce A ⊑ D, use ∃r.A.
	if sup.Op == dl.OpSome && !sup.Args[0].IsAtomic() {
		a := b.newAtom()
		lhs := b.leftChecked(sub)
		b.addExRHS(lhs, sup.Role.ID, a)
		b.defineFresh(a, sup.Args[0])
		return
	}
	lhs := b.leftChecked(sub)
	switch sup.Op {
	case dl.OpTop:
		// Tautology.
	case dl.OpBottom, dl.OpName:
		b.addSub(lhs, b.atomFor(sup))
	case dl.OpSome:
		b.addExRHS(lhs, sup.Role.ID, b.atomFor(sup.Args[0]))
	default:
		panic("el: axiomChecked on non-EL right side")
	}
}

// axiomLenient lowers sub ⊑ sup, keeping as much as the fragment can
// express. A non-EL left side forces dropping the whole GCI: weakening a
// left side would make the axiom apply more broadly, which is unsound. A
// conjunctive right side is split into one GCI per conjunct and each
// non-EL conjunct dropped individually — dropping a conjunct only
// weakens the axiom, which is sound. Returns how many right-side
// conjuncts were kept and dropped.
func (b *builder) axiomLenient(sub, sup *dl.Concept) (kept, dropped int) {
	if checkEL(sub) != nil {
		return 0, 1
	}
	return b.supLenient(sub, sup)
}

func (b *builder) supLenient(sub, sup *dl.Concept) (kept, dropped int) {
	if sup.Op == dl.OpAnd {
		for _, arg := range sup.Args {
			k, d := b.supLenient(sub, arg)
			kept, dropped = kept+k, dropped+d
		}
		return kept, dropped
	}
	if checkEL(sup) != nil {
		return 0, 1
	}
	b.axiomChecked(sub, sup)
	return 1, 0
}

// defineFresh emits axioms making fresh atom a behave as a ⊑ d, for a d
// that checkEL accepted.
func (b *builder) defineFresh(a atom, d *dl.Concept) {
	switch d.Op {
	case dl.OpAnd:
		for _, arg := range d.Args {
			b.defineFresh(a, arg)
		}
	case dl.OpSome:
		if !d.Args[0].IsAtomic() {
			inner := b.newAtom()
			b.addExRHS(a, d.Role.ID, inner)
			b.defineFresh(inner, d.Args[0])
			return
		}
		b.addExRHS(a, d.Role.ID, b.atomFor(d.Args[0]))
	case dl.OpTop:
	case dl.OpBottom, dl.OpName:
		b.addSub(a, b.atomFor(d))
	default:
		panic("el: defineFresh on non-EL concept")
	}
}

func (b *builder) addSub(a, c atom) {
	b.growSubs(a)
	b.n.subs[a] = append(b.n.subs[a], c)
}

func (b *builder) addConj(a1, a2, c atom) {
	key := pairKey(a1, a2)
	b.n.conj[key] = append(b.n.conj[key], c)
	b.growConj(a1)
	b.growConj(a2)
	b.n.conjByLeft[a1] = append(b.n.conjByLeft[a1], conjEntry{other: a2, rhs: c})
	if a1 != a2 {
		b.n.conjByLeft[a2] = append(b.n.conjByLeft[a2], conjEntry{other: a1, rhs: c})
	}
}

func (b *builder) addExRHS(a atom, role int32, filler atom) {
	b.growExRHS(a)
	b.n.exRHS[a] = append(b.n.exRHS[a], roleAtom{role: role, a: filler})
}

func (b *builder) addExLHS(role int32, filler, rhs atom) {
	if b.n.exLHS == nil {
		b.n.exLHS = make([]map[atom][]atom, b.n.numRoles)
	}
	if b.n.exLHS[role] == nil {
		b.n.exLHS[role] = make(map[atom][]atom)
	}
	b.n.exLHS[role][filler] = append(b.n.exLHS[role][filler], rhs)
	b.growExLHSFiller(filler)
	b.n.exLHSFiller[filler] = append(b.n.exLHSFiller[filler], roleAtom{role: role, a: rhs})
}

func (b *builder) growSubs(a atom)  { b.n.subs = grow(b.n.subs, int(a)) }
func (b *builder) growConj(a atom)  { b.n.conjByLeft = grow(b.n.conjByLeft, int(a)) }
func (b *builder) growExRHS(a atom) { b.n.exRHS = grow(b.n.exRHS, int(a)) }
func (b *builder) growExLHSFiller(a atom) {
	b.n.exLHSFiller = grow(b.n.exLHSFiller, int(a))
}

func grow[T any](s []T, i int) []T {
	for len(s) <= i {
		s = append(s, *new(T))
	}
	return s
}

// finishIndexes pads every per-atom index to numAtoms so the saturation
// can index without bounds checks, and marks the live roles, the
// told-only atoms and the pure atoms.
//
// These are ELK's side conditions on its existential and ⊥ rules
// (Kazakov, Krötzsch & Simančík, JAR 2014). Only three rules read
// links: CR4, for roles with an ∃ on a left side (and, through
// super-role materialisation, every role below one); CR5, only once ⊥
// enters some S(A) other than S(⊥), which needs ⊥ on the right of a
// normal axiom or as an ∃-right filler; and CR11, which composes links
// of one role into links of the same role. A role is live when one of
// the first two reads its links; CR11 and materialisation of a dead
// role only make dead links, so dropping them loses no S(A) bit. An atom
// whose CR2–CR5 loops are all empty once dead links are gone is
// told-only, and an atom whose told closure is all told-only is pure (see
// markPure). Queries read rows alone, so every answer is unchanged.
func (n *normalized) finishIndexes() {
	n.subs = grow(n.subs, n.numAtoms-1)
	n.conjByLeft = grow(n.conjByLeft, n.numAtoms-1)
	n.exRHS = grow(n.exRHS, n.numAtoms-1)
	n.exLHSFiller = grow(n.exLHSFiller, n.numAtoms-1)
	if n.exLHS == nil {
		n.exLHS = make([]map[atom][]atom, n.numRoles)
	}
	n.exLHSMask = make([][]uint64, n.numRoles)
	for r, idx := range n.exLHS {
		if len(idx) == 0 {
			continue
		}
		mask := make([]uint64, (n.numAtoms+63)/64)
		for b := range idx {
			mask[b>>6] |= 1 << (uint(b) & 63)
		}
		n.exLHSMask[r] = mask
	}

	toBottom := func(ra roleAtom) bool { return ra.a == atomBottom }
	bottom := false // ⊥ can enter some S(A) with A ≠ ⊥
	for a := range n.numAtoms {
		bottom = bottom || slices.Contains(n.subs[a], atomBottom) ||
			slices.ContainsFunc(n.conjByLeft[a], func(e conjEntry) bool { return e.rhs == atomBottom }) ||
			slices.ContainsFunc(n.exLHSFiller[a], toBottom) ||
			slices.ContainsFunc(n.exRHS[a], toBottom)
	}
	roles := n.tbox.Factory.Roles()[:n.numRoles]
	var read []*dl.Role // roles with an ∃ on a left side
	for _, s := range roles {
		if len(n.exLHS[s.ID]) > 0 {
			read = append(read, s)
		}
	}
	n.live = make([]bool, n.numRoles)
	for _, r := range roles {
		// IsSubRoleOf is reflexive and follows cyclic hierarchies.
		n.live[r.ID] = bottom || slices.ContainsFunc(read, r.IsSubRoleOf)
	}
	n.toldOnly = make([]bool, n.numAtoms)
	for a := range n.toldOnly {
		n.toldOnly[a] = atom(a) != atomBottom && len(n.conjByLeft[a]) == 0 && len(n.exLHSFiller[a]) == 0 &&
			!slices.ContainsFunc(n.exRHS[a], func(ra roleAtom) bool { return n.live[ra.role] })
	}
	n.markPure()
}

// markPure marks the pure atoms and fills pureOrder and pureEnds.
//
// A pure atom A fires no rule but CR1 in its own context, so it owns no
// link (every link starts at a CR3 in its source's context) and S(A) is
// exactly its told closure; the saturation writes that row up front (see
// saturation.closeTold). No CR2, CR4 or CR5 join reads a pure atom's bit:
// conjunction operands, ∃-left fillers and ⊥ are never told-only.
//
// An iterative Tarjan over the told graph finishes each strongly
// connected component after every component it reaches, so a component
// is pure when its members are told-only and each component it reaches
// is pure. The closure of {A, ⊤} is all told-only only if ⊤'s is, so no
// atom is pure unless ⊤ is.
func (n *normalized) markPure() {
	num := make([]int32, n.numAtoms) // DFS number from 1; 0 while unvisited
	low := make([]int32, n.numAtoms)
	finished := make([]bool, n.numAtoms) // its component is complete
	n.pure = make([]bool, n.numAtoms)
	var open []atom // visited atoms of unfinished components
	type frame struct {
		a    atom
		next int // the next edge of subs[a] to follow
	}
	var path []frame
	var clock int32
	visit := func(a atom) {
		clock++
		num[a], low[a] = clock, clock
		open = append(open, a)
		path = append(path, frame{a: a})
	}
	for root := range n.numAtoms {
		if num[root] != 0 {
			continue
		}
		visit(atom(root))
		for len(path) > 0 {
			f := &path[len(path)-1]
			a := f.a
			if f.next < len(n.subs[a]) {
				b := n.subs[a][f.next]
				f.next++
				if num[b] == 0 {
					visit(b)
				} else if !finished[b] {
					low[a] = min(low[a], num[b])
				}
				continue
			}
			path = path[:len(path)-1]
			if len(path) > 0 {
				p := path[len(path)-1].a
				low[p] = min(low[p], low[a])
			}
			if low[a] != num[a] {
				continue
			}
			// a roots the component open[k:]. Each told subsumer of a
			// member is a member or lies in a finished component.
			k := len(open) - 1
			for open[k] != a {
				k--
			}
			comp, pure := open[k:], true
			for _, m := range comp {
				pure = pure && n.toldOnly[m]
				for _, d := range n.subs[m] {
					pure = pure && (!finished[d] || n.pure[d])
				}
			}
			for _, m := range comp {
				finished[m], n.pure[m] = true, pure
			}
			if pure {
				n.pureOrder = append(n.pureOrder, comp...)
				n.pureEnds = append(n.pureEnds, int32(len(n.pureOrder)))
			}
			open = open[:k]
		}
	}
	if !n.pure[atomTop] {
		clear(n.pure)
		n.pureOrder, n.pureEnds = nil, nil
	}
}
