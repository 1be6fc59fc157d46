package el

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"parowl/internal/bitset"
	"parowl/internal/dl"
	"parowl/internal/taxonomy"
)

// Options configures the EL reasoner.
type Options struct {
	// Workers is the number of saturation workers; 0 means GOMAXPROCS.
	Workers int
}

// Reasoner answers satisfiability and subsumption for named concepts of an
// ELH+ TBox by one-shot concurrent saturation. It is safe for concurrent
// use.
//
// Normalization (after New) and saturation run lazily on the first query,
// under that query's context: when the context is cancelled
// mid-saturation the partial state is discarded (never served) and the
// next query re-runs saturation from scratch under its own context. The
// finished saturation is published through an atomic pointer, so queries
// after it take no lock.
type Reasoner struct {
	tbox *dl.TBox
	opts Options

	mu  sync.Mutex                 // serializes normalization and saturation runs
	n   *normalized                // NewFragment's, or built on New's first query; guarded by mu
	sat atomic.Pointer[saturation] // set once fully saturated
}

// New checks that the TBox stays inside EL and fails otherwise (the
// caller should then fall back to the tableau reasoner). Normalization
// waits for the first query, so a plug-in that is never called costs
// only the check.
func New(t *dl.TBox, opts Options) (*Reasoner, error) {
	t.Freeze()
	for _, gci := range t.AsGCIs() {
		if err := checkEL(gci.Sub); err != nil {
			return nil, err
		}
		if err := checkEL(gci.Sup); err != nil {
			return nil, err
		}
	}
	return &Reasoner{tbox: t, opts: opts}, nil
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
	return &Reasoner{tbox: t, n: n, opts: opts}, cov
}

// TBox returns the TBox this reasoner answers for.
func (r *Reasoner) TBox() *dl.TBox { return r.tbox }

// ensure normalizes (after New) and saturates on first use. A cancelled
// saturation leaves r.sat nil so a later call retries; concurrent first
// queries serialize on r.mu, and every later query returns from the
// atomic load.
func (r *Reasoner) ensure(ctx context.Context) (*saturation, error) {
	if s := r.sat.Load(); s != nil {
		return s, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.sat.Load(); s != nil {
		return s, nil
	}
	workers := r.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if r.n == nil {
		// New checked the TBox is EL, so its fragment is all of it.
		r.n, _ = newNormalizedFragment(r.tbox)
	}
	s := newSaturation(r.n)
	if err := s.run(ctx, workers); err != nil {
		return nil, fmt.Errorf("el: saturation abandoned: %w", err)
	}
	r.sat.Store(s)
	return s, nil
}

// SaturateContext forces saturation now (it otherwise happens lazily on
// the first query). It is safe to call repeatedly.
func (r *Reasoner) SaturateContext(ctx context.Context) error {
	_, err := r.ensure(ctx)
	return err
}

// atomQuery resolves a query concept to its atom in sat by its ID; only
// ⊤, ⊥ and named concepts of the TBox are queryable. The conceptOf check
// refuses a complex concept, and a concept of another factory that
// happens to share a named concept's ID.
func (r *Reasoner) atomQuery(sat *saturation, c *dl.Concept) (atom, error) {
	if id := int(c.ID); id < len(sat.n.atomByID) {
		if a := sat.n.atomByID[id]; sat.n.conceptOf[a] == c {
			return a, nil
		}
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
	a, err := r.atomQuery(sat, c)
	if err != nil {
		return false, err
	}
	return !sat.has(a, atomBottom), nil
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
	sa, err := r.atomQuery(sat, sub)
	if err != nil {
		return false, err
	}
	if sat.has(sa, atomBottom) {
		return true, nil // unsatisfiable concepts are subsumed by everything
	}
	if sup.Op == dl.OpBottom {
		return false, nil
	}
	pa, err := r.atomQuery(sat, sup)
	if err != nil {
		return false, err
	}
	return sat.has(sa, pa), nil
}

// Seeds saturates under ctx and hands a classifier the proven
// conclusions about the TBox's named concepts as whole rows. Concepts are
// indexed as in TBox.NamedConcepts(), with ⊤ at index
// len(NamedConcepts()): the order internal/core numbers them in.
//
// unsat receives every named concept proven unsatisfiable and, only after
// all of them, row receives in ascending order each satisfiable index i
// with its subsumer row: the set, over the same indices, of every named
// concept j ≠ i with i ⊑ j. The trivial X ⊑ ⊤ is left out, so no row holds
// ⊤ and ⊤'s own row holds the concepts equivalent to ⊤. Each row is
// freshly allocated and belongs to the callee. Saturation is sound for
// whatever axiom subset it was given, so every conclusion holds for the
// full TBox even when this reasoner covers only its EL fragment; when the
// coverage is Complete they are also exhaustive. If ⊤ itself is
// unsatisfiable the fragment is inconsistent: every named concept is then
// reported to unsat (⊤ never is) and no row follows. Both callbacks run on
// the calling goroutine.
func (r *Reasoner) Seeds(ctx context.Context, unsat func(i int), row func(i int, sups *bitset.Set)) error {
	sat, err := r.ensure(ctx)
	if err != nil {
		return err
	}
	named := len(r.tbox.NamedConcepts())
	for i := 0; i < named; i++ {
		if sat.has(namedAtom(i), atomBottom) {
			unsat(i)
		}
	}
	for i := 0; i <= named; i++ {
		a := atomTop
		if i < named {
			a = namedAtom(i)
		}
		if !sat.has(a, atomBottom) {
			row(i, sat.namedRow(a, i, named))
		}
	}
	return nil
}

// namedRow returns S(a) restricted to the named concepts, over their
// NamedConcepts() indices (capacity named+1, the last index being ⊤'s),
// without index self and without ⊤. Named atoms follow ⊤ and ⊥, so the
// row is the slab row shifted down two bits, one word at a time.
func (s *saturation) namedRow(a atom, self, named int) *bitset.Set {
	src := s.row(a)
	words := make([]uint64, (named+64)/64)
	for k := range words {
		w := src[k].Load() >> 2
		if k+1 < len(src) {
			w |= src[k+1].Load() << 62
		}
		words[k] = w
	}
	row := bitset.FromWords(named+1, words)
	row.Clear(named) // the first fresh atom, not ⊤
	if self < named {
		row.Clear(self)
	}
	return row
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
	for i, c := range named {
		row := map[*dl.Concept]bool{c: true}
		subs[c] = row
		a := namedAtom(i)
		if sat.has(a, atomBottom) {
			unsat[c] = true
			continue
		}
		sat.namedRow(a, i, len(named)).ForEach(func(j int) bool {
			row[named[j]] = true
			return true
		})
	}
	return taxonomy.FromSubsumers(r.tbox.Factory, subs, unsat)
}
