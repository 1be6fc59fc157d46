package parowl

import (
	"io"
	"os"
	"path/filepath"
	"strings"

	"parowl/internal/manchester"
	"parowl/internal/obo"
	"parowl/internal/owlfss"
)

// ReasonerFactory builds the reasoner plug-in an Engine uses for an
// ontology when a classification call does not name one explicitly.
// NewAutoReasoner is the default.
type ReasonerFactory func(*TBox) Reasoner

// Engine is the package's top-level handle: a reasoner selection policy
// plus the base classification Options applied to every ontology it
// loads. One Engine serves any number of Ontology handles concurrently —
// a long-lived process (the owld daemon, a test harness, an embedding
// application) builds one Engine at startup and goes through it for all
// loading and classification.
//
// The zero-argument NewEngine() uses the package defaults: auto-selected
// reasoner, optimized mode, round-robin scheduling, GOMAXPROCS workers,
// and the cheap-first pipeline (Options.ELPrepass and
// Options.ModelFilter) on. WithOptions replaces the whole template, so
// WithOptions(Options{}) runs the paper's plain algorithm.
type Engine struct {
	base    Options
	factory ReasonerFactory
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithOptions sets the base Options template every classification
// started through this Engine inherits (per-call Options passed to
// Ontology.ClassifyWith replace the template entirely). The template's
// Reasoner field is ignored; reasoner selection goes through
// WithReasoner.
func WithOptions(o Options) EngineOption {
	return func(e *Engine) {
		o.Reasoner = nil
		e.base = o
	}
}

// WithWorkers sets the worker pool size of the base template.
func WithWorkers(n int) EngineOption {
	return func(e *Engine) { e.base.Workers = n }
}

// WithScheduling sets the scheduling policy of the base template.
func WithScheduling(s Scheduling) EngineOption {
	return func(e *Engine) { e.base.Scheduling = s }
}

// WithReasoner sets the factory that builds a reasoner plug-in per
// ontology; nil restores the default NewAutoReasoner selection.
func WithReasoner(f ReasonerFactory) EngineOption {
	return func(e *Engine) { e.factory = f }
}

// NewEngine builds an Engine from the given options, starting from the
// default template: the cheap-first pipeline on, everything else zero.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{base: Options{ELPrepass: true, ModelFilter: true}}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Options returns a copy of the Engine's base classification template
// (Reasoner always nil; it is chosen per ontology).
func (e *Engine) Options() Options { return e.base }

// reasonerFor picks the plug-in for t: the configured factory, or the
// automatic EL-vs-tableau selection.
func (e *Engine) reasonerFor(t *TBox) Reasoner {
	if e.factory != nil {
		if r := e.factory(t); r != nil {
			return r
		}
	}
	return NewAutoReasoner(t)
}

// NewOntology wraps an in-memory TBox in an Ontology handle bound to
// this Engine. The TBox must not be mutated afterwards.
func (e *Engine) NewOntology(t *TBox) *Ontology {
	return &Ontology{eng: e, tbox: t}
}

// Load parses an ontology from r in the given format and returns its
// handle. name becomes the TBox name (shown in metrics and listings).
func (e *Engine) Load(r io.Reader, name string, f Format) (*Ontology, error) {
	var (
		t   *TBox
		err error
	)
	switch f {
	case FormatOBO:
		t, err = obo.Parse(r, name)
	case FormatManchester:
		t, err = manchester.Parse(r, name)
	default:
		t, err = owlfss.Parse(r, name)
	}
	if err != nil {
		return nil, err
	}
	return e.NewOntology(t), nil
}

// LoadFile loads an ontology from disk, dispatching on the extension via
// DetectFormat, and returns its handle.
func (e *Engine) LoadFile(path string) (*Ontology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return e.Load(f, name, DetectFormat(path))
}

// Generate builds a synthetic corpus from a Table IV/V profile and
// returns its handle (see Profiles and MiniProfile for the available
// shapes).
func (e *Engine) Generate(p Profile, seed int64) (*Ontology, error) {
	t, err := p.Generate(seed)
	if err != nil {
		return nil, err
	}
	return e.NewOntology(t), nil
}
