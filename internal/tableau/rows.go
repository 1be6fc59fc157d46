package tableau

import (
	"context"

	"parowl/internal/bitset"
	"parowl/internal/dl"
)

// columns indexes the pseudo models of a concept list as dense bit
// columns over its positions, so one row of the model filter is a few
// word-wide and-nots instead of a pairwise merge per concept. y is in
//
//   - pos[c] when name c is in pos(pm y), and neg[c] when ¬c is in its
//     label (at most one bit per (name, concept) in each);
//   - exists[r] when pm y has an ∃/≥ entry on some s ⊑* r, and univ[s]
//     when it has a ∀/≤ entry on some r with s ⊑* r. The role columns are
//     closed under the role hierarchy as they are built, so a row reads
//     one column per role of pm(¬x);
//   - models when pm y exists and is satisfiable.
//
// Names and roles key the columns by their dense IDs; columns nobody
// sets are absent. The index is read-only once built.
type columns struct {
	n                      int
	pos, neg, exists, univ map[int32]*bitset.Set
	models                 *bitset.Set
	// subRoles maps a role ID to the IDs of its proper sub-roles.
	subRoles map[int32][]int32
}

// FilterRows implements reasoner.RowFilter: it indexes the pseudo models
// of cs (a named concept's is normally cached by the Sat call that
// decided it) and returns row, which sets out to exactly the y for which
// DisprovesSubs(cs[x], cs[y]) is true. row(x, out) builds pm(¬cs[x]) —
// one tableau run on first use — and clears from the concepts that have
// a satisfiable model every column its label names. A nil cs[i] gets no
// column and an empty row. row is safe for concurrent use with distinct
// out sets.
func (r *Reasoner) FilterRows(ctx context.Context, cs []*dl.Concept) func(x int, out *bitset.Set) {
	ix := r.newColumns(len(cs))
	for y, c := range cs {
		if c != nil {
			ix.add(y, r.pseudoModel(ctx, c))
		}
	}
	return func(x int, out *bitset.Set) {
		out.ClearAll()
		if cs[x] == nil {
			return
		}
		if pm := r.pseudoModel(ctx, r.tbox.Factory.Not(cs[x])); pm != nil && pm.sat {
			ix.row(pm, out)
		}
	}
}

func (r *Reasoner) newColumns(n int) *columns {
	ix := &columns{
		n:        n,
		pos:      map[int32]*bitset.Set{},
		neg:      map[int32]*bitset.Set{},
		exists:   map[int32]*bitset.Set{},
		univ:     map[int32]*bitset.Set{},
		models:   bitset.New(n),
		subRoles: map[int32][]int32{},
	}
	for _, s := range r.tbox.Factory.Roles() {
		for a := range s.Ancestors() {
			if a != s {
				ix.subRoles[a.ID] = append(ix.subRoles[a.ID], s.ID)
			}
		}
	}
	return ix
}

// add indexes pm as the model of position y.
func (ix *columns) add(y int, pm *pmodel) {
	if pm == nil || !pm.sat {
		return
	}
	ix.models.Set(y)
	for _, c := range pm.pos {
		ix.column(ix.pos, c).Set(y)
	}
	for _, c := range pm.neg {
		ix.column(ix.neg, c).Set(y)
	}
	for _, s := range pm.exists {
		for a := range s.Ancestors() {
			ix.column(ix.exists, a.ID).Set(y)
		}
	}
	for _, u := range pm.univ {
		ix.column(ix.univ, u.ID).Set(y)
		for _, d := range ix.subRoles[u.ID] {
			ix.column(ix.univ, d).Set(y)
		}
	}
}

func (ix *columns) column(m map[int32]*bitset.Set, id int32) *bitset.Set {
	col := m[id]
	if col == nil {
		col = bitset.New(ix.n)
		m[id] = col
	}
	return col
}

// row sets out to the indexed concepts whose pseudo model merges with
// neg, the satisfiable pseudo model of ¬x: every y with a model except
// those that clash with neg at the root (a name one side asserts and the
// other negates) or through a role (one side creates successors the
// other constrains). See mergeable, the pairwise form.
func (ix *columns) row(neg *pmodel, out *bitset.Set) {
	out.Union(ix.models)
	subtract := func(m map[int32]*bitset.Set, id int32) {
		if col := m[id]; col != nil {
			out.Subtract(col)
		}
	}
	for _, c := range neg.neg {
		subtract(ix.pos, c)
	}
	for _, c := range neg.pos {
		subtract(ix.neg, c)
	}
	for _, s := range neg.exists {
		subtract(ix.univ, s.ID)
	}
	for _, u := range neg.univ {
		subtract(ix.exists, u.ID)
	}
}
