package tableau

import (
	"context"
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
	pos map[*dl.Concept]bool
	neg map[*dl.Concept]bool
	// exists are the roles of ∃/≥ root entries (successor-creating);
	// univ are the roles of ∀/≤ root entries (successor-constraining).
	exists []*dl.Role
	univ   []*dl.Role
}

// extractPModel summarizes the root node of a completed graph. The pmodel
// holds only interned factory objects (concepts, roles), never arena
// state, so it safely outlives the pooled solver that produced it.
func extractPModel(g *graph) *pmodel {
	root := g.nodes[0]
	m := &pmodel{sat: true, pos: map[*dl.Concept]bool{}, neg: map[*dl.Concept]bool{}}
	seenEx := map[*dl.Role]bool{}
	seenUv := map[*dl.Role]bool{}
	for _, c := range root.label.order {
		switch c.Op {
		case dl.OpName:
			m.pos[c] = true
		case dl.OpNot:
			m.neg[c.Args[0]] = true
		case dl.OpSome, dl.OpMin:
			if !seenEx[c.Role] {
				seenEx[c.Role] = true
				m.exists = append(m.exists, c.Role)
			}
		case dl.OpAll, dl.OpMax:
			if !seenUv[c.Role] {
				seenUv[c.Role] = true
				m.univ = append(m.univ, c.Role)
			}
		}
	}
	return m
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
	for c := range a.pos {
		if b.neg[c] {
			return false
		}
	}
	for c := range b.pos {
		if a.neg[c] {
			return false
		}
	}
	if rolesInteract(a.exists, b.univ) || rolesInteract(b.exists, a.univ) {
		return false
	}
	return true
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
// witness a model of sub ⊓ ¬sup, so the subsumption fails. It
// implements the classifier's optional ModelFilter capability and is the
// one place pseudo-model merging runs. A nil pseudo model — budget blowup
// or cancellation while building it — or an unsatisfiable side answers
// false ("don't know"): an unsatisfiable sub is subsumed by everything,
// and an unsatisfiable ¬sup makes sup equivalent to ⊤. The pseudo models
// are extracted from the pooled solver arenas before release and hold
// only interned factory objects, so the probe is safe for concurrent use
// from every worker.
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
// satisfiability test to build it on first use. Errors (budget blowups,
// cancellation) yield a nil model, which disables merging for c.
func (r *Reasoner) pseudoModel(ctx context.Context, c *dl.Concept) *pmodel {
	if pm, ok := r.models.get(c); ok {
		return pm
	}
	s := r.acquireSolver()
	s.bindContext(ctx)
	s.start(c)
	sat, _, err := s.solve()
	// Extract before release: the graph is arena state and is recycled the
	// moment the solver returns to the pool.
	var pm *pmodel
	if err == nil {
		if sat {
			pm = extractPModel(s.g)
		} else {
			pm = &pmodel{sat: false}
		}
	}
	r.releaseSolver(s)
	if pm == nil {
		return nil
	}
	r.models.put(c, pm)
	return pm
}
