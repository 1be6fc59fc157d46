// Package parowl is a parallel shared-memory OWL TBox classifier — a Go
// reproduction of Quan & Haarslev, "A Parallel Shared-Memory Architecture
// for OWL Ontology Classification" (ICPP 2017).
//
// The package classifies an ontology's named concepts into a subsumption
// taxonomy using a pool of workers over shared atomic data structures,
// with any reasoner plugged in behind the sat?/subs? interface. The
// public surface is handle-based: an Engine holds construction options
// (reasoner selection, scheduling policy, base classification options)
// and hands out Ontology handles carrying a loaded TBox plus its
// classified state:
//
//	eng := parowl.NewEngine(parowl.WithWorkers(8))
//	ont, err := eng.LoadFile("anatomy.obo")
//	...
//	res, err := ont.Classify(ctx)
//	...
//	fmt.Print(res.Taxonomy.Render())
//	snap, _ := ont.Snapshot() // concurrent queries, swap-safe
//	ok, _ := snap.Subsumes("Organ", "Heart")
//
// Three reasoner plug-ins ship with the package: a tableau reasoner for
// ALCHQ with transitive roles (the default), an ELK-style saturation
// reasoner for EL ontologies, and a deterministic oracle with a synthetic
// cost model for scheduling experiments. See the examples directory and
// cmd/benchfig for the reproduction of the paper's tables and figures;
// cmd/owld serves classification and queries over HTTP.
package parowl

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"parowl/internal/core"
	"parowl/internal/dl"
	"parowl/internal/el"
	"parowl/internal/manchester"
	"parowl/internal/obo"
	"parowl/internal/ontogen"
	"parowl/internal/owlfss"
	"parowl/internal/reasoner"
	"parowl/internal/schedsim"
	"parowl/internal/tableau"
	"parowl/internal/taxonomy"
)

// Core ontology types, re-exported from the internal data model.
type (
	// TBox is a terminology: concepts, roles and axioms.
	TBox = dl.TBox
	// Concept is an interned concept expression.
	Concept = dl.Concept
	// Role is an object property.
	Role = dl.Role
	// Metrics is an ontology metrics row (paper Tables IV/V columns).
	Metrics = dl.Metrics
	// Taxonomy is a classification result: the subsumption DAG.
	Taxonomy = taxonomy.Taxonomy
	// TaxonomyNode is one equivalence class of a Taxonomy.
	TaxonomyNode = taxonomy.Node
	// TaxonomyDiff reports semantic differences between two taxonomies.
	TaxonomyDiff = taxonomy.Diff
	// TaxonomyKernel is the compiled bit-matrix query form of a Taxonomy:
	// dense node IDs plus one ancestor-closure bit row per node, which
	// serves Subsumes as one bit test, Ancestors and LCA as word-parallel
	// row operations, and Descendants as a walk down the child edges.
	// Compile with Taxonomy.CompileKernel, Options.CompileKernel, or
	// Snapshot.Kernel. It has no on-disk form: a resumed or adopted
	// checkpoint compiles it again.
	TaxonomyKernel = taxonomy.Kernel
	// Reasoner is the plug-in interface behind sat?() and subs?(). Both
	// methods receive a context; plug-ins must return promptly (with an
	// error wrapping the context's error) once it is cancelled, which is
	// what makes Options.TestTimeout budgets effective.
	Reasoner = reasoner.Interface
	// RowFilter is the optional plug-in capability consulted by
	// Options.ModelFilter: cheap, sound "definitely not subsumed" answers,
	// one row of concepts at a time, that skip the full subs? dispatch.
	RowFilter = reasoner.RowFilter
	// Undecided is one reasoner test abandoned under the per-test budget
	// (see Options.TestTimeout) or recovered from a plug-in panic.
	Undecided = core.Undecided
	// Options configures a classification run; see the field docs in
	// internal/core. An Engine holds the base template (Engine.Options)
	// and Ontology.ClassifyWith takes a per-run value.
	Options = core.Options
	// Result is a classification outcome: taxonomy, stats and trace.
	Result = core.Result
	// Stats counts reasoner calls and pruned pairs.
	Stats = core.Stats
	// Trace is the per-cycle instrumentation record.
	Trace = core.Trace
	// Scheduling selects the worker pool's dispatch policy (RoundRobin
	// or Async).
	Scheduling = core.Scheduling
	// Profile is a synthetic-corpus generator profile.
	Profile = ontogen.Profile
	// CostModel assigns virtual durations to oracle subsumption tests.
	CostModel = reasoner.CostModel
	// ChaosOptions configures NewChaosReasoner's fault mix.
	ChaosOptions = reasoner.ChaosOptions
)

// Classification modes and scheduling policies (re-exported constants).
const (
	// ModeOptimized enables the Section IV pruning optimizations.
	ModeOptimized = core.Optimized
	// ModeBasic runs the Section III algorithms without pruning.
	ModeBasic = core.Basic
	// RoundRobin dispatches task i to worker i mod w (the paper's policy).
	RoundRobin = core.RoundRobin
	// Async runs classification barrier-free on a work-stealing pool:
	// each worker owns a lock-free deque fed hardest-first (LPT) and
	// idle workers steal queued tasks from busy ones; workers publish
	// results continuously, random-division cycles are
	// pipelined, group-division work is re-cut from the live shared
	// state below a backlog watermark, and the run quiesces only at
	// phase edges and due checkpoints (epoch-consistent snapshots),
	// where a coordinator prune sweep converts the epoch's late-arriving
	// subsumptions into reasoner-free pair resolutions.
	Async = core.Async
)

// Concept constructor kinds (re-exported for plug-in authors inspecting
// concept expressions).
const (
	OpTop    = dl.OpTop
	OpBottom = dl.OpBottom
	OpName   = dl.OpName
	OpNot    = dl.OpNot
	OpAnd    = dl.OpAnd
	OpOr     = dl.OpOr
	OpSome   = dl.OpSome
	OpAll    = dl.OpAll
	OpMin    = dl.OpMin
	OpMax    = dl.OpMax
)

// NewTBox returns an empty TBox to build programmatically.
func NewTBox(name string) *TBox { return dl.NewTBox(name) }

// ParseScheduling maps a policy name ("roundrobin" or "async", as printed
// by Scheduling.String) back to the constant.
func ParseScheduling(name string) (Scheduling, error) { return core.ParseScheduling(name) }

// Format identifies an ontology serialization syntax for Write/WriteFile
// and the Engine loaders' extension dispatch.
type Format int

// Supported serialization formats.
const (
	// FormatFunctional is OWL 2 functional-style syntax (the default).
	FormatFunctional Format = iota
	// FormatOBO is OBO 1.2 (representable EL TBoxes only).
	FormatOBO
	// FormatManchester is OWL 2 Manchester syntax.
	FormatManchester
)

func (f Format) String() string {
	switch f {
	case FormatOBO:
		return "obo"
	case FormatManchester:
		return "manchester"
	default:
		return "functional"
	}
}

// ParseFormat maps a format name (as printed by Format.String) back to
// the constant; the owld daemon uses it for the submit endpoint's
// ?format= parameter.
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "functional", "ofn", "owl":
		return FormatFunctional, nil
	case "obo":
		return FormatOBO, nil
	case "manchester", "omn":
		return FormatManchester, nil
	default:
		return FormatFunctional, fmt.Errorf("parowl: unknown format %q (want functional, obo, or manchester)", name)
	}
}

// DetectFormat maps a file path to the format implied by its extension:
// .obo is FormatOBO, .omn and .manchester are FormatManchester, anything
// else is FormatFunctional. Engine.LoadFile, WriteFile and the cmd/
// tools all dispatch through it, so the mapping is defined exactly once.
func DetectFormat(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".obo":
		return FormatOBO
	case ".omn", ".manchester":
		return FormatManchester
	default:
		return FormatFunctional
	}
}

// Write serializes the TBox to w in the given format.
func Write(w io.Writer, t *TBox, f Format) error {
	switch f {
	case FormatOBO:
		return obo.Write(w, t)
	case FormatManchester:
		return manchester.Write(w, t)
	case FormatFunctional:
		return owlfss.Write(w, t)
	default:
		return fmt.Errorf("parowl: unknown format %d", f)
	}
}

// WriteFile serializes the TBox to a file in the given format. Pass
// DetectFormat(path) to let the extension pick the syntax.
func WriteFile(path string, t *TBox, f Format) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(out, t, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ComputeMetrics returns the ontology's metric row.
func ComputeMetrics(t *TBox) Metrics { return dl.ComputeMetrics(t) }

// ErrBadSnapshot reports a checkpoint file that is truncated, corrupted,
// of an unknown version, or inconsistent with the ontology it is being
// restored into. Ontology.Adopt returns errors wrapping it.
var ErrBadSnapshot = core.ErrBadSnapshot

// ErrIncompleteSnapshot reports an Ontology.Adopt of a checkpoint whose
// classification had not finished; resume it with Ontology.Resume
// instead.
var ErrIncompleteSnapshot = core.ErrIncompleteSnapshot

// ErrChaosFault marks a failure injected by the Chaos reasoner decorator
// rather than a genuine reasoner error. Callers running fault-injection
// campaigns (and owld's classify retry policy) match it with errors.Is
// to tell transient injected faults from real failures.
var ErrChaosFault = reasoner.ErrInjected

// CompareTaxonomies reports the entailment differences from old to new
// (added/removed subsumptions, unsatisfiability and vocabulary changes).
func CompareTaxonomies(old, new *Taxonomy) *TaxonomyDiff {
	return taxonomy.Compare(old, new)
}

// NewTableauReasoner returns the built-in tableau plug-in (ALCHQ with
// transitive roles; handles every ontology this package can represent).
func NewTableauReasoner(t *TBox) Reasoner {
	return tableau.New(t, tableau.Options{})
}

// NewELReasoner returns the saturation-based plug-in; it fails if the
// TBox leaves the EL fragment.
func NewELReasoner(t *TBox) (Reasoner, error) {
	return el.New(t, el.Options{})
}

// NewAutoReasoner picks the EL reasoner when the ontology fits the EL
// fragment and the tableau otherwise. It is the default ReasonerFactory
// of every Engine.
func NewAutoReasoner(t *TBox) Reasoner {
	if r, err := el.New(t, el.Options{}); err == nil {
		return r
	}
	return NewTableauReasoner(t)
}

// NewOracleReasoner returns the deterministic told-closure oracle with an
// optional per-test cost model (used by the figure harness; see
// internal/reasoner for the cost-model constructors re-exported below).
func NewOracleReasoner(t *TBox, subsCost CostModel) Reasoner {
	return reasoner.NewOracle(t, reasoner.OracleOptions{SubsCost: subsCost})
}

// UniformCost and HeavyTailCost build the two cost regimes of the paper's
// evaluation (Sec. V-B): uniform per-test times, and a few very expensive
// tests for QCR-heavy ontologies.
var (
	UniformCost   = reasoner.UniformCost
	HeavyTailCost = reasoner.HeavyTailCost
)

// NewChaosReasoner wraps a plug-in with deterministic fault injection
// (random errors, panics, hangs, budget exhaustion, added latency) for
// crash-safety and degradation testing. Make it the outermost layer of
// a decorated plug-in: a decorator wrapped around it, such as a memo with
// single-flight bookkeeping, could be unwound mid-update by an injected
// panic. Panics on invalid options.
func NewChaosReasoner(r Reasoner, o ChaosOptions) Reasoner { return reasoner.NewChaos(r, o) }

// ParseChaos parses the compact chaos spec used by the -chaos flag of
// owlclass and owld, e.g. "err=0.01,panic=0.005,slow=2ms,seed=7".
func ParseChaos(spec string) (ChaosOptions, error) { return reasoner.ParseChaos(spec) }

// Profiles returns the 14 corpus profiles of the paper's Tables IV and V.
func Profiles() []Profile {
	out := append([]Profile(nil), ontogen.TableIV...)
	return append(out, ontogen.TableV...)
}

// ProfileByName looks up a Table IV/V profile.
func ProfileByName(name string) (Profile, bool) { return ontogen.ByName(name) }

// Generate builds a synthetic corpus from a profile. Engine.Generate
// wraps the result in an Ontology handle.
func Generate(p Profile, seed int64) (*TBox, error) { return p.Generate(seed) }

// MiniProfile scales a profile down by the given factor (for quick runs
// and small machines), preserving its qualitative shape.
func MiniProfile(p Profile, scale int) Profile { return ontogen.Mini(p, scale) }

// SpeedupPoint is one (workers, speedup) sample of a scalability curve.
type SpeedupPoint = schedsim.SweepPoint

// SpeedupSweep reproduces the paper's scalability methodology: for each
// worker count w it classifies the ontology with a w-worker pool (the
// group partitions depend on w), collects the dispatched task stream with
// each test charged its plug-in cost, and replays it on w virtual workers
// with the calibrated overhead model. Speedup is the paper's metric: the
// sum of all thread runtimes divided by the elapsed time.
func SpeedupSweep(t *TBox, r Reasoner, workers []int, opts Options) ([]SpeedupPoint, error) {
	if r == nil {
		return nil, fmt.Errorf("parowl: SpeedupSweep needs a reasoner (use NewOracleReasoner)")
	}
	run := func(w int) (*core.Trace, error) {
		o := opts
		o.Reasoner = r
		o.Workers = w
		o.CollectTrace = true
		res, err := core.Classify(t, o)
		if err != nil {
			return nil, err
		}
		return res.Trace, nil
	}
	return schedsim.Sweep(run, workers, schedsim.DefaultOverhead, opts.Scheduling)
}
