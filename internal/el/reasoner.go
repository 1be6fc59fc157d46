package el

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"parowl/internal/dl"
	"parowl/internal/taxonomy"
)

// Options configures the EL reasoner.
type Options struct {
	// Workers is the number of saturation workers; 0 means GOMAXPROCS.
	Workers int
}

// Reasoner answers satisfiability and subsumption for named concepts of an
// ELH+ TBox by one-shot concurrent saturation. After New it is immutable
// and safe for concurrent use.
//
// Saturation runs lazily on the first query and observes that query's
// context: when the context is cancelled mid-saturation the partial state
// is discarded (never served) and the next query re-runs saturation from
// scratch under its own context.
type Reasoner struct {
	tbox     *dl.TBox
	n        *normalized
	opts     Options
	complete bool // the normalization covers the whole TBox, not a fragment

	mu  sync.Mutex
	sat *saturation // non-nil only once fully saturated
}

// New normalizes the TBox; it fails if the TBox leaves the EL fragment
// (the caller should then fall back to the tableau reasoner).
func New(t *dl.TBox, opts Options) (*Reasoner, error) {
	t.Freeze()
	n, err := newNormalized(t)
	if err != nil {
		return nil, err
	}
	return &Reasoner{tbox: t, n: n, opts: opts, complete: true}, nil
}

// NewFragment builds a reasoner over the EL-expressible fragment of any
// TBox: axioms outside EL are weakened or dropped (see Coverage) instead
// of failing. Every answer of true from Sat's negation — i.e. every
// derived unsatisfiability — and every answer of true from Subs is
// entailed by the full TBox, because the fragment's axioms are. Negative
// answers are only authoritative when the coverage is Complete.
func NewFragment(t *dl.TBox, opts Options) (*Reasoner, Coverage) {
	t.Freeze()
	n, cov := newNormalizedFragment(t)
	return &Reasoner{tbox: t, n: n, opts: opts, complete: cov.Complete()}, cov
}

// TBox returns the TBox this reasoner answers for.
func (r *Reasoner) TBox() *dl.TBox { return r.tbox }

// ensure saturates on first use. A cancelled saturation leaves r.sat nil
// so a later call retries; concurrent first queries serialize on the
// mutex exactly as they previously did on sync.Once.
func (r *Reasoner) ensure(ctx context.Context) (*saturation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sat != nil {
		return r.sat, nil
	}
	workers := r.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := newSaturation(r.n)
	if err := s.run(ctx, workers); err != nil {
		return nil, fmt.Errorf("el: saturation abandoned: %w", err)
	}
	r.sat = s
	return s, nil
}

// SaturateContext forces saturation now (it otherwise happens lazily on
// the first query). It is safe to call repeatedly.
func (r *Reasoner) SaturateContext(ctx context.Context) error {
	_, err := r.ensure(ctx)
	return err
}

// atomQuery resolves a query concept to its atom; only ⊤, ⊥ and named
// concepts of the TBox are queryable.
func (r *Reasoner) atomQuery(c *dl.Concept) (atom, error) {
	if a, ok := r.n.atomOf[c]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("el: concept %v is not a named concept of TBox %q", c, r.tbox.Name)
}

// Sat reports whether named concept c is satisfiable, i.e. ⊥ ∉ S(c).
func (r *Reasoner) Sat(ctx context.Context, c *dl.Concept) (bool, error) {
	sat, err := r.ensure(ctx)
	if err != nil {
		return false, err
	}
	if c.Op == dl.OpBottom {
		return false, nil
	}
	a, err := r.atomQuery(c)
	if err != nil {
		return false, err
	}
	return !sat.ctxs[a].hasSub(atomBottom), nil
}

// Subs reports whether sup subsumes sub (sub ⊑ sup) for named concepts
// (⊤/⊥ allowed on either side).
func (r *Reasoner) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	sat, err := r.ensure(ctx)
	if err != nil {
		return false, err
	}
	if sup.Op == dl.OpTop || sub.Op == dl.OpBottom {
		return true, nil
	}
	sa, err := r.atomQuery(sub)
	if err != nil {
		return false, err
	}
	if sat.ctxs[sa].hasSub(atomBottom) {
		return true, nil // unsatisfiable concepts are subsumed by everything
	}
	if sup.Op == dl.OpBottom {
		return false, nil
	}
	pa, err := r.atomQuery(sup)
	if err != nil {
		return false, err
	}
	return sat.ctxs[sa].hasSub(pa), nil
}

// DisprovesSubs reports that sub ⊑ sup definitely does not hold. It
// implements the classifier's optional ModelFilter capability: for a
// complete EL reasoner the saturation is complete, so a missing
// subsumer is a proof of non-subsumption. A fragment reasoner never
// disproves anything — its saturation is only a lower bound.
func (r *Reasoner) DisprovesSubs(ctx context.Context, sup, sub *dl.Concept) bool {
	if !r.complete {
		return false
	}
	ok, err := r.Subs(ctx, sup, sub)
	return err == nil && !ok
}

// Seeds saturates under ctx and streams the proven conclusions about the
// TBox's named concepts to a classifier, one fact at a time and without
// materializing them: unsat receives every named concept proven
// unsatisfiable, and only after all of them, subsumes receives every
// directed subsumption sub ⊑ sup between distinct satisfiable named
// concepts (including ⊤ ⊑ C facts, which witness equivalence to ⊤).
// The trivial X ⊑ ⊤ and X ⊑ X facts are omitted. Saturation is sound
// for whatever axiom subset it was given, so every fact holds for the
// full TBox even when this reasoner covers only its EL fragment; when
// the coverage is Complete the facts are also exhaustive. If ⊤ itself
// is unsatisfiable the fragment is inconsistent: every named concept is
// then reported to unsat (⊤ never is) and no subsumption follows. Both
// callbacks run on the calling goroutine.
func (r *Reasoner) Seeds(ctx context.Context, unsat func(c *dl.Concept), subsumes func(sub, sup *dl.Concept)) error {
	sat, err := r.ensure(ctx)
	if err != nil {
		return err
	}
	bottom := func(c *dl.Concept) bool { return sat.ctxs[r.n.atomOf[c]].hasSub(atomBottom) }
	named := r.tbox.NamedConcepts()
	for _, c := range named {
		if bottom(c) {
			unsat(c)
		}
	}
	emit := func(c *dl.Concept) {
		if bottom(c) {
			return
		}
		sat.ctxs[r.n.atomOf[c]].forEachSub(func(s atom) {
			if sc := r.n.conceptOf[s]; sc != nil && sc != c && sc.Op == dl.OpName {
				subsumes(c, sc) // fresh names, reflexive facts and ⊤/⊥ are skipped
			}
		})
	}
	emit(r.tbox.Factory.Top())
	for _, c := range named {
		emit(c)
	}
	return nil
}

// Subsumers returns the named subsumers of named concept c (excluding ⊤,
// including c itself), or all named concepts if c is unsatisfiable.
func (r *Reasoner) Subsumers(c *dl.Concept) ([]*dl.Concept, error) {
	sat, err := r.ensure(context.Background())
	if err != nil {
		return nil, err
	}
	a, err := r.atomQuery(c)
	if err != nil {
		return nil, err
	}
	if sat.ctxs[a].hasSub(atomBottom) {
		out := make([]*dl.Concept, len(r.tbox.NamedConcepts()))
		copy(out, r.tbox.NamedConcepts())
		return out, nil
	}
	var out []*dl.Concept
	for _, s := range sat.ctxs[a].snapshotSubs() {
		if c := r.n.conceptOf[s]; c != nil && c.Op == dl.OpName {
			out = append(out, c)
		}
	}
	return out, nil
}

// Classify computes the full taxonomy directly from the saturation — the
// way ELK classifies EL ontologies, without pairwise subsumption tests.
// It is the standalone comparator the paper positions its architecture
// against ("ELK supports parallel TBox classification but is restricted
// to the very small EL fragment of OWL", Sec. I).
func (r *Reasoner) Classify() (*taxonomy.Taxonomy, error) {
	return r.ClassifyContext(context.Background())
}

// ClassifyContext is Classify with cancellation of the underlying
// saturation.
func (r *Reasoner) ClassifyContext(ctx context.Context) (*taxonomy.Taxonomy, error) {
	sat, err := r.ensure(ctx)
	if err != nil {
		return nil, err
	}
	named := r.tbox.NamedConcepts()
	subs := make(map[*dl.Concept]map[*dl.Concept]bool, len(named))
	unsat := make(map[*dl.Concept]bool)
	for _, c := range named {
		a := r.n.atomOf[c]
		if sat.ctxs[a].hasSub(atomBottom) {
			unsat[c] = true
			subs[c] = map[*dl.Concept]bool{c: true}
			continue
		}
		row := map[*dl.Concept]bool{c: true}
		for _, s := range sat.ctxs[a].snapshotSubs() {
			if sc := r.n.conceptOf[s]; sc != nil && sc.Op == dl.OpName {
				row[sc] = true
			}
		}
		subs[c] = row
	}
	return taxonomy.FromSubsumers(r.tbox.Factory, subs, unsat)
}
