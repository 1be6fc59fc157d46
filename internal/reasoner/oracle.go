package reasoner

import (
	"context"
	"time"

	"parowl/internal/bitset"
	"parowl/internal/dl"
)

// CostModel assigns a deterministic virtual duration to one subsumption
// test. The scalability experiments use it to reproduce the paper's two
// observed regimes (Sec. V-B): "rather uniform" test times for most
// ontologies and a few very expensive tests for high-QCR ontologies.
type CostModel func(sup, sub *dl.Concept, result bool) time.Duration

// Virtual is implemented by plug-ins whose tests carry a synthetic cost.
// The classifier's tracing layer charges this cost instead of measured
// wall time, and the virtual-time scheduler (internal/schedsim) replays it
// on w simulated workers.
type Virtual interface {
	VirtualSubsCost(sup, sub *dl.Concept, result bool) time.Duration
}

// splitmix64 is a tiny deterministic hash used to derive per-pair jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func pairHash(seed uint64, a, b int32) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(uint32(a))<<32|uint64(uint32(b))))
}

// UniformCost returns a cost model with a fixed base duration and up to
// ±jitterFrac relative deterministic jitter, reproducing HermiT's uniform
// per-test behaviour on the Table IV corpora.
func UniformCost(base time.Duration, jitterFrac float64, seed uint64) CostModel {
	return func(sup, sub *dl.Concept, _ bool) time.Duration {
		h := pairHash(seed, sup.ID, sub.ID)
		// Map the hash to [-1, 1).
		u := float64(int64(h))/float64(1<<63) + 0
		return base + time.Duration(float64(base)*jitterFrac*u)
	}
}

// HeavyTailCost returns a cost model where a deterministic tailProb
// fraction of pairs cost tailFactor × base, reproducing the paper's
// observation that for ontologies with many QCRs "a few subsumption tests
// may require a significant amount of the total runtime" — the cause of
// the bridg ontology's speedup plateau in Fig. 10(b).
func HeavyTailCost(base time.Duration, tailProb float64, tailFactor float64, seed uint64) CostModel {
	uniform := UniformCost(base, 0.2, seed)
	threshold := uint64(tailProb * float64(^uint64(0)))
	return func(sup, sub *dl.Concept, result bool) time.Duration {
		if pairHash(seed^0xabcdef, sup.ID, sub.ID) < threshold {
			return time.Duration(float64(base) * tailFactor)
		}
		return uniform(sup, sub, result)
	}
}

// Oracle is a deterministic reasoner plug-in: it precomputes the
// subsumption closure entailed by the named-level axioms of a TBox and
// answers every test by bitset lookup, charging a CostModel-defined
// virtual duration. It stands in for HermiT in experiments whose subject
// is the classifier's scheduling, not the DL calculus. The generated
// corpora (internal/ontogen) are constructed so that this closure is the
// complete entailed subsumption relation.
//
// Oracle is safe for concurrent use after New.
type Oracle struct {
	tbox      *dl.TBox
	index     map[*dl.Concept]int
	named     []*dl.Concept
	ancestors []*bitset.Set // per concept: indexes of all subsumers (reflexive)
	unsat     *bitset.Set
	subsCost  CostModel
	satCost   time.Duration
	realTime  bool
}

// OracleOptions configures the synthetic cost model.
type OracleOptions struct {
	// SubsCost is the per-test cost model; nil means zero cost.
	SubsCost CostModel
	// SatCost is charged per satisfiability test.
	SatCost time.Duration
	// RealTime makes Sat/Subs actually sleep their virtual cost instead
	// of answering instantly. Virtual-time replay (schedsim) does not
	// need this, but wall-clock scheduler benchmarks do: with real
	// per-test durations the pool's policies produce measurably different
	// makespans. Sleeps respect context cancellation.
	RealTime bool
}

// NewOracle builds the told-closure oracle for t. ⊤ participates as a
// regular node so that ⊤ ⊑ X queries (equivalence to ⊤) are answerable.
func NewOracle(t *dl.TBox, opts OracleOptions) *Oracle {
	named := append(append([]*dl.Concept(nil), t.NamedConcepts()...), t.Factory.Top())
	o := &Oracle{
		tbox:     t,
		index:    make(map[*dl.Concept]int, len(named)),
		named:    named,
		subsCost: opts.SubsCost,
		satCost:  opts.SatCost,
		realTime: opts.RealTime,
	}
	for i, c := range named {
		o.index[c] = i
	}
	n := len(named)
	parents := make([][]int, n)   // direct told subsumers
	toBottom := bitset.New(n + 1) // concepts with an axiom path to ⊥
	addEdge := func(sub, sup *dl.Concept) {
		si, ok := o.index[sub]
		if !ok {
			return
		}
		if sup.Op == dl.OpBottom {
			toBottom.Set(si)
			return
		}
		// A named conjunction on the right contributes one edge per
		// conjunct; other complex right sides carry no named entailment.
		switch sup.Op {
		case dl.OpName:
			if pi, ok := o.index[sup]; ok {
				parents[si] = append(parents[si], pi)
			}
		case dl.OpAnd:
			for _, arg := range sup.Args {
				if arg.Op == dl.OpName {
					if pi, ok := o.index[arg]; ok {
						parents[si] = append(parents[si], pi)
					}
				}
			}
		}
	}
	for _, ax := range t.AsGCIs() {
		addEdge(ax.Sub, ax.Sup)
	}
	// Every concept is below ⊤, so axioms on ⊤ (e.g. ⊤ ⊑ A from
	// EquivalentClasses(A, owl:Thing)) propagate to everything.
	topIdx := n - 1
	for i := 0; i < topIdx; i++ {
		parents[i] = append(parents[i], topIdx)
	}
	// Reflexive-transitive closure by DFS per concept (corpora are
	// taxonomy-shaped DAGs, so this stays near-linear).
	o.ancestors = make([]*bitset.Set, n)
	o.unsat = bitset.New(n)
	var visit func(i int, acc *bitset.Set)
	visit = func(i int, acc *bitset.Set) {
		if acc.Test(i) {
			return
		}
		acc.Set(i)
		for _, p := range parents[i] {
			visit(p, acc)
		}
	}
	for i := 0; i < n; i++ {
		acc := bitset.New(n)
		visit(i, acc)
		o.ancestors[i] = acc
	}
	// Unsatisfiability propagates downward: A is unsat if any of its
	// subsumers reaches ⊥.
	for i := 0; i < n; i++ {
		o.ancestors[i].ForEach(func(p int) bool {
			if toBottom.Test(p) {
				o.unsat.Set(i)
				return false
			}
			return true
		})
	}
	return o
}

// Sat implements Interface for named concepts (⊤/⊥ allowed). The answer
// is a bitset lookup, so the context is only checked up front.
func (o *Oracle) Sat(ctx context.Context, c *dl.Concept) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	switch c.Op {
	case dl.OpTop:
		return true, nil
	case dl.OpBottom:
		return false, nil
	}
	i, ok := o.index[c]
	if !ok {
		return false, errNotNamed(c, o.tbox)
	}
	if o.realTime {
		if err := sleepFor(ctx, o.satCost); err != nil {
			return false, err
		}
	}
	return !o.unsat.Test(i), nil
}

// Subs implements Interface for named concepts (⊤/⊥ allowed).
func (o *Oracle) Subs(ctx context.Context, sup, sub *dl.Concept) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if sup.Op == dl.OpTop || sub.Op == dl.OpBottom {
		return true, nil
	}
	si, ok := o.index[sub]
	if !ok {
		return false, errNotNamed(sub, o.tbox)
	}
	if o.unsat.Test(si) {
		return true, nil
	}
	if sup.Op == dl.OpBottom {
		return false, nil
	}
	pi, ok := o.index[sup]
	if !ok {
		return false, errNotNamed(sup, o.tbox)
	}
	res := o.ancestors[si].Test(pi)
	if o.realTime && o.subsCost != nil {
		if err := sleepFor(ctx, o.subsCost(sup, sub, res)); err != nil {
			return false, err
		}
	}
	return res, nil
}

// sleepFor blocks for d, honouring context cancellation (RealTime mode).
func sleepFor(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// VirtualSubsCost implements Virtual.
func (o *Oracle) VirtualSubsCost(sup, sub *dl.Concept, result bool) time.Duration {
	if o.subsCost == nil {
		return 0
	}
	return o.subsCost(sup, sub, result)
}

type oracleErr struct {
	c *dl.Concept
	t *dl.TBox
}

func errNotNamed(c *dl.Concept, t *dl.TBox) error { return &oracleErr{c, t} }

func (e *oracleErr) Error() string {
	return "reasoner: oracle can only answer for named concepts of " + e.t.Name + ", got " + e.c.String()
}
