package tableau

import (
	"context"
	"slices"
	"sync"

	"parowl/internal/dl"
)

// pmodel is a pseudo model: a summary of the root label of a clash-free
// completion graph for a concept. Two concepts whose pseudo models are
// mergeable have a joint model obtained by gluing the two completion
// graphs at the root, so their conjunction is satisfiable — the classic
// model-merging optimization of Racer and FaCT++ used to decide
// NON-subsumption without a tableau run (subs?(D, C) is false whenever
// pmodel(C) and pmodel(¬D) merge).
type pmodel struct {
	sat bool // false: the concept itself is unsatisfiable
	// pos holds the dense IDs of the concept names in the root label and
	// neg those of the names it negates, each sorted ascending — the same
	// IDs labelSet indexes by, so merging is a merge of two sorted runs
	// and FilterRows reads them as column numbers.
	pos, neg []int32
	// exists are the roles of ∃/≥ root entries (successor-creating);
	// univ are the roles of ∀/≤ root entries (successor-constraining).
	exists []*dl.Role
	univ   []*dl.Role
}

// unsatModel is the pseudo model of every unsatisfiable concept.
var unsatModel = &pmodel{}

// extractPModel summarizes the root node of a completed graph. The pmodel
// holds only concept IDs and interned roles, never arena state, so it
// safely outlives the pooled solver that produced it.
func extractPModel(g *graph) *pmodel {
	m := &pmodel{sat: true}
	for _, c := range g.nodes[0].label.order {
		switch c.Op {
		case dl.OpName:
			m.pos = append(m.pos, c.ID)
		case dl.OpNot:
			m.neg = append(m.neg, c.Args[0].ID)
		case dl.OpSome, dl.OpMin:
			m.exists = appendRole(m.exists, c.Role)
		case dl.OpAll, dl.OpMax:
			m.univ = appendRole(m.univ, c.Role)
		}
	}
	slices.Sort(m.pos)
	slices.Sort(m.neg)
	return m
}

// appendRole adds r to rs unless present; root labels quantify over a
// handful of roles, so a scan beats a set.
func appendRole(rs []*dl.Role, r *dl.Role) []*dl.Role {
	if slices.Contains(rs, r) {
		return rs
	}
	return append(rs, r)
}

// mergeable reports whether the glued interpretation is clash-free:
// no complementary atomic pair at the root, and neither side creates
// successors on a role the other side constrains (taking the role
// hierarchy into account — an s-successor is also an r-successor for
// every s ⊑* r).
func mergeable(a, b *pmodel) bool {
	if !a.sat || !b.sat {
		return false
	}
	if sortedMeet(a.pos, b.neg) || sortedMeet(b.pos, a.neg) {
		return false
	}
	return !rolesInteract(a.exists, b.univ) && !rolesInteract(b.exists, a.univ)
}

// sortedMeet reports whether two ascending ID runs share an element.
func sortedMeet(a, b []int32) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

func rolesInteract(exists, univ []*dl.Role) bool {
	for _, s := range exists {
		for _, r := range univ {
			if s.IsSubRoleOf(r) {
				return true
			}
		}
	}
	return false
}

// modelCache memoizes pseudo models per concept; safe for concurrent use.
type modelCache struct {
	mu sync.RWMutex
	m  map[*dl.Concept]*pmodel
}

func (mc *modelCache) get(c *dl.Concept) (*pmodel, bool) {
	mc.mu.RLock()
	defer mc.mu.RUnlock()
	pm, ok := mc.m[c]
	return pm, ok
}

func (mc *modelCache) put(c *dl.Concept, pm *pmodel) {
	mc.mu.Lock()
	if mc.m == nil {
		mc.m = make(map[*dl.Concept]*pmodel)
	}
	mc.m[c] = pm
	mc.mu.Unlock()
}

// DisprovesSubs reports that sub ⊑ sup definitely does not hold, by
// merging the cached pseudo models of sub and ¬sup: mergeable models
// witness a model of sub ⊓ ¬sup, so the subsumption fails. It is the
// pairwise form of FilterRows, which answers the same question for a
// whole row at once and is tested against it. A nil pseudo model —
// budget blowup or cancellation while building it — or an unsatisfiable
// side answers false ("don't know"): an unsatisfiable sub is subsumed by
// everything, and an unsatisfiable ¬sup makes sup equivalent to ⊤. The
// pseudo models hold no arena state, so the probe is safe for concurrent
// use from every worker.
func (r *Reasoner) DisprovesSubs(ctx context.Context, sup, sub *dl.Concept) bool {
	pmSub := r.pseudoModel(ctx, sub)
	if pmSub == nil || !pmSub.sat {
		return false
	}
	pmNeg := r.pseudoModel(ctx, r.tbox.Factory.Not(sup))
	if pmNeg == nil || !pmNeg.sat {
		return false
	}
	if !mergeable(pmSub, pmNeg) {
		return false
	}
	r.stats.MergeSkips.Add(1)
	return true
}

// pseudoModel returns the cached pseudo model of c, running a
// satisfiability test to build it on first use. A named concept's model
// is usually cached already, by the Sat call that decided it. Errors
// (budget blowups, cancellation) yield a nil model, which disables
// merging for c.
func (r *Reasoner) pseudoModel(ctx context.Context, c *dl.Concept) *pmodel {
	if pm, ok := r.models.get(c); ok {
		return pm
	}
	_, pm, err := r.solve(ctx, c, true)
	if err != nil {
		return nil
	}
	r.models.put(c, pm)
	return pm
}
