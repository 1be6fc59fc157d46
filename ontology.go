package parowl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"parowl/internal/core"
	"parowl/internal/dl"
	"parowl/internal/module"
)

// ErrNotClassified reports a query against an Ontology whose taxonomy has
// not been computed yet (no successful Classify/Resume call). Callers
// that race queries with classification — the owld daemon does — should
// treat it as "retry after classification finishes", not as a fatal
// error.
var ErrNotClassified = errors.New("parowl: ontology not classified yet")

// ErrUnknownConcept reports a query naming a concept that does not exist
// in the ontology's vocabulary.
var ErrUnknownConcept = errors.New("parowl: unknown concept name")

// Ontology is the handle for one loaded TBox and its classified state.
// It is safe for concurrent use: queries read an immutable Snapshot held
// behind an atomic pointer, and a reclassification builds a complete new
// Snapshot before swapping it in, so readers always see either the old
// taxonomy or the new one — never a half-built mix. Classification calls
// on the same handle serialize.
type Ontology struct {
	eng  *Engine
	tbox *TBox

	classifyMu sync.Mutex // one classification writer at a time
	state      atomic.Pointer[Snapshot]
	gen        atomic.Uint64

	nameOnce sync.Once
	byName   map[string]*Concept
}

// TBox returns the underlying terminology. Callers must not mutate it.
func (o *Ontology) TBox() *TBox { return o.tbox }

// Name returns the ontology's name (the TBox name).
func (o *Ontology) Name() string { return o.tbox.Name }

// Metrics returns the ontology's metric row (paper Tables IV/V columns).
func (o *Ontology) Metrics() Metrics { return dl.ComputeMetrics(o.tbox) }

// Classified reports whether the handle holds a classified taxonomy.
func (o *Ontology) Classified() bool { return o.state.Load() != nil }

// Snapshot returns the current classification generation: an immutable
// view that stays valid (and consistent) while later reclassifications
// swap in new generations. It fails with ErrNotClassified before the
// first successful classification.
func (o *Ontology) Snapshot() (*Snapshot, error) {
	s := o.state.Load()
	if s == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotClassified, o.Name())
	}
	return s, nil
}

// Taxonomy returns the current generation's taxonomy, or
// ErrNotClassified.
func (o *Ontology) Taxonomy() (*Taxonomy, error) {
	s, err := o.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.tax, nil
}

// Kernel returns the current generation's compiled bit-matrix query
// kernel, compiling (and attaching) it on first use, or
// ErrNotClassified.
func (o *Ontology) Kernel() (*TaxonomyKernel, error) {
	s, err := o.Snapshot()
	if err != nil {
		return nil, err
	}
	return s.Kernel(), nil
}

// Concept resolves a concept name in the ontology's vocabulary.
func (o *Ontology) Concept(name string) (*Concept, bool) {
	o.nameOnce.Do(func() {
		o.byName = make(map[string]*Concept, o.tbox.NumNamed())
		for _, c := range o.tbox.NamedConcepts() {
			o.byName[c.Name] = c
		}
	})
	c, ok := o.byName[name]
	return c, ok
}

// Classify classifies the ontology with the Engine's base options and
// reasoner selection, swapping the result in as the new current
// generation. See ClassifyWith.
func (o *Ontology) Classify(ctx context.Context) (*Result, error) {
	return o.ClassifyWith(ctx, o.eng.Options())
}

// ClassifyWith classifies the ontology with explicit Options (the
// Engine's reasoner selection fills a nil opts.Reasoner). On success the
// result becomes the current generation, atomically replacing any prior
// one — queries issued concurrently keep reading the old Snapshot until
// the swap and the new one after it. On error the current generation is
// left untouched.
//
// Calls on the same handle serialize; use separate handles to classify
// several ontologies concurrently (the owld daemon does exactly that).
func (o *Ontology) ClassifyWith(ctx context.Context, opts Options) (*Result, error) {
	if opts.Reasoner == nil {
		opts.Reasoner = o.eng.reasonerFor(o.tbox)
	}
	o.classifyMu.Lock()
	defer o.classifyMu.Unlock()
	res, err := core.ClassifyContext(ctx, o.tbox, opts)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{ont: o, tax: res.Taxonomy, res: res, gen: o.gen.Add(1)}
	o.state.Store(snap)
	return res, nil
}

// Resume classifies the ontology restoring state from the given
// checkpoint file, and keeps checkpointing to the same file so an
// interrupted resume is itself resumable. A missing or invalid snapshot
// degrades to a clean run (reported in Result.ResumeError), never to a
// wrong taxonomy.
func (o *Ontology) Resume(ctx context.Context, checkpoint string) (*Result, error) {
	opts := o.eng.Options()
	opts.ResumeFrom = checkpoint
	opts.Checkpoint = checkpoint
	return o.ClassifyWith(ctx, opts)
}

// Adopt restores a COMPLETED classification from a checkpoint file
// without invoking any reasoner, swapping the rebuilt taxonomy in as the
// current generation. This is the restart path of a serving daemon: the
// taxonomy is built from the hierarchy the finished run stored
// (byte-identical to the original run's) and its query kernel compiled,
// so the cost is file decode, taxonomy build and kernel compile — zero
// sat?/subs? calls, with the run's original Stats restored to prove it.
//
// Unlike Resume, a missing/corrupt/mismatched snapshot (wrapping
// ErrBadSnapshot) or an unfinished one (wrapping ErrIncompleteSnapshot)
// is returned as an error and the handle is left untouched — Adopt never
// falls back to reclassifying; the caller owns that decision.
func (o *Ontology) Adopt(ctx context.Context, checkpoint string) (*Result, error) {
	o.classifyMu.Lock()
	defer o.classifyMu.Unlock()
	res, err := core.Adopt(ctx, o.tbox, core.AdoptOptions{
		Snapshot: checkpoint,
		Workers:  o.eng.Options().Workers,
	})
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{ont: o, tax: res.Taxonomy, res: res, gen: o.gen.Add(1)}
	o.state.Store(snap)
	return res, nil
}

// Fingerprint hashes the ontology content checkpoint snapshots depend on
// (named-concept sequence and axioms). Two loads of the same source
// fingerprint equal; any change invalidates old checkpoints. The owld
// registry manifest records it to pair persisted entries with their
// source across restarts.
func (o *Ontology) Fingerprint() uint64 { return core.FingerprintTBox(o.tbox) }

// ClassifySequential runs the brute-force sequential baseline (every
// pair tested, one goroutine) without touching the handle's current
// generation. A nil reasoner gets the Engine's selection.
func (o *Ontology) ClassifySequential(ctx context.Context, r Reasoner) (*Taxonomy, error) {
	if r == nil {
		r = o.eng.reasonerFor(o.tbox)
	}
	return core.SequentialBruteForceContext(ctx, o.tbox, r)
}

// ClassifyEnhancedTraversal runs the classical insertion-based
// sequential algorithm (the paper's sequential comparator) without
// touching the handle's current generation. A nil reasoner gets the
// Engine's selection.
func (o *Ontology) ClassifyEnhancedTraversal(ctx context.Context, r Reasoner) (*Taxonomy, error) {
	if r == nil {
		r = o.eng.reasonerFor(o.tbox)
	}
	return core.EnhancedTraversalContext(ctx, o.tbox, r)
}

// ExtractModule computes the ⊥-locality module for the seed concept
// names and returns it as a fresh (unclassified) handle on the same
// Engine.
func (o *Ontology) ExtractModule(seedConcepts []string) (*Ontology, error) {
	m, err := module.Extract(o.tbox, seedConcepts)
	if err != nil {
		return nil, err
	}
	return o.eng.NewOntology(m), nil
}

// Write serializes the ontology to w in the given format.
func (o *Ontology) Write(w io.Writer, f Format) error { return Write(w, o.tbox, f) }

// WriteFile serializes the ontology to a file in the given format.
func (o *Ontology) WriteFile(path string, f Format) error { return WriteFile(path, o.tbox, f) }

// Snapshot is one immutable classification generation of an Ontology:
// the taxonomy, the run's Result, and the compiled query kernel. All
// methods are safe for concurrent use, and every answer a Snapshot gives
// is consistent with its own generation even while the owning Ontology
// reclassifies and swaps in newer ones.
type Snapshot struct {
	ont *Ontology
	tax *Taxonomy
	res *Result
	gen uint64
}

// Taxonomy returns the generation's subsumption DAG.
func (s *Snapshot) Taxonomy() *Taxonomy { return s.tax }

// Result returns the classification result that produced the generation.
func (s *Snapshot) Result() *Result { return s.res }

// Stats returns the generation's reasoner-usage counters.
func (s *Snapshot) Stats() Stats { return s.res.Stats }

// Generation returns the 1-based classification generation number; it
// increases with every successful (re)classification of the Ontology.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Complete reports whether every reasoner test settled (no pairs left
// undecided under per-test budgets); an incomplete taxonomy is sound but
// may be missing subsumptions.
func (s *Snapshot) Complete() bool { return len(s.res.Undecided) == 0 }

// Kernel returns the generation's compiled bit-matrix query kernel,
// compiling and attaching it on first use (idempotent, concurrency-safe).
func (s *Snapshot) Kernel() *TaxonomyKernel { return s.tax.CompileKernel(0) }

// MemoryFootprint estimates the generation's resident cost in bytes: the
// taxonomy DAG plus the compiled query kernel's closure rows (the
// dominant term — n² bits — on large ontologies). A kernel that has not
// been compiled yet contributes nothing; the owld daemon always serves
// kernel-compiled snapshots, so for its eviction budget this is the real
// reclaimable size.
func (s *Snapshot) MemoryFootprint() int64 {
	total := int64(s.tax.MemoryFootprint())
	if k := s.tax.Kernel(); k != nil {
		total += int64(k.MemoryFootprint())
	}
	return total
}

// concept resolves a name or reports ErrUnknownConcept.
func (s *Snapshot) concept(name string) (*Concept, error) {
	c, ok := s.ont.Concept(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownConcept, name)
	}
	return c, nil
}

// Subsumes reports sub ⊑ sup (equivalence included) by name: one bit
// test on the compiled kernel.
func (s *Snapshot) Subsumes(sup, sub string) (bool, error) {
	cs, err := s.concept(sup)
	if err != nil {
		return false, err
	}
	cb, err := s.concept(sub)
	if err != nil {
		return false, err
	}
	return s.Kernel().Subsumes(cs, cb), nil
}

// SubsumesBatch answers many subsumption pairs — each pair is
// (sup, sub), asking sub ⊑ sup — in one call. Pairs sharing a subject
// are answered against a single kernel ancestor-row sweep, which is what
// makes batched multi-pair checks from the owld daemon cheaper than n
// independent requests.
func (s *Snapshot) SubsumesBatch(pairs [][2]string) ([]bool, error) {
	out := make([]bool, len(pairs))
	// Group the pair indices by subject so each distinct subject costs
	// one dense-ID resolution and one row sweep.
	bySub := make(map[string][]int, len(pairs))
	for i, p := range pairs {
		bySub[p[1]] = append(bySub[p[1]], i)
	}
	k := s.Kernel()
	for sub, idxs := range bySub {
		cb, err := s.concept(sub)
		if err != nil {
			return nil, err
		}
		sups := make([]*Concept, len(idxs))
		for j, i := range idxs {
			cs, err := s.concept(pairs[i][0])
			if err != nil {
				return nil, err
			}
			sups[j] = cs
		}
		for j, v := range k.SubsumesBatch(cb, sups) {
			out[idxs[j]] = v
		}
	}
	return out, nil
}

// Ancestors returns the strict ancestor nodes of the named concept.
func (s *Snapshot) Ancestors(name string) ([]*TaxonomyNode, error) {
	c, err := s.concept(name)
	if err != nil {
		return nil, err
	}
	return s.Kernel().Ancestors(c), nil
}

// Descendants returns the strict descendant nodes of the named concept.
func (s *Snapshot) Descendants(name string) ([]*TaxonomyNode, error) {
	c, err := s.concept(name)
	if err != nil {
		return nil, err
	}
	return s.Kernel().Descendants(c), nil
}

// Equivalents returns the concepts equivalent to the named one
// (including itself).
func (s *Snapshot) Equivalents(name string) ([]*Concept, error) {
	c, err := s.concept(name)
	if err != nil {
		return nil, err
	}
	return s.Kernel().Equivalents(c), nil
}

// LCA returns the lowest common ancestor nodes of the two named
// concepts (reflexive; a DAG can have several).
func (s *Snapshot) LCA(a, b string) ([]*TaxonomyNode, error) {
	ca, err := s.concept(a)
	if err != nil {
		return nil, err
	}
	cb, err := s.concept(b)
	if err != nil {
		return nil, err
	}
	return s.Kernel().LCA(ca, cb), nil
}

// Depth returns the longest ⊤-path length to the named concept's node.
func (s *Snapshot) Depth(name string) (int, error) {
	c, err := s.concept(name)
	if err != nil {
		return 0, err
	}
	return s.Kernel().Depth(c), nil
}
