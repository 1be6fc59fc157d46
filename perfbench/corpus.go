package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"parowl"
)

// corpus names one generated input: a Table IV/V profile at 1/scale
// size, serialised in one syntax.
type corpus struct {
	ID      string // registry id in the serve workload
	Profile string
	Scale   int
	Format  parowl.Format
}

// corpusSeed is the generator seed of every corpus: the default -seed
// of owlclass, ontogen and benchfig, so a workload classifies the same
// ontology those tools generate for its profile and scale. Like the
// paper's fixed corpora, a workload's ontologies do not change with the
// workload seed, which drives the traffic instead: the query mix, the
// concept pool's skew and the edits. (Tableau cost varies several-fold
// between generator seeds of one profile at these sizes, which would
// swamp any change a run is meant to show.)
const corpusSeed = 1

// built is a corpus generated for one seed.
type built struct {
	corpus
	Seed     int64
	Src      []byte
	Concepts int
}

// build generates the corpus for seed and serialises it. It is part of
// every workload's set-up.
func (c corpus) build(seed int64) (built, error) {
	p, ok := parowl.ProfileByName(c.Profile)
	if !ok {
		return built{}, fmt.Errorf("unknown profile %q", c.Profile)
	}
	tb, err := parowl.Generate(parowl.MiniProfile(p, c.Scale), seed)
	if err != nil {
		return built{}, fmt.Errorf("generate %s: %w", c.Profile, err)
	}
	var buf bytes.Buffer
	if err := parowl.Write(&buf, tb, c.Format); err != nil {
		return built{}, fmt.Errorf("serialise %s: %w", c.Profile, err)
	}
	return built{corpus: c, Seed: seed, Src: buf.Bytes(), Concepts: tb.NumNamed()}, nil
}

// load parses the corpus bytes through the engine, as a user would.
func (b built) load(eng *parowl.Engine) (*parowl.Ontology, error) {
	return eng.Load(bytes.NewReader(b.Src), b.ID, b.Format)
}

// oboEdit returns a copy of an OBO document with one extra is_a axiom,
// sub ⊑ sup, inserted into sub's stanza.
func oboEdit(src []byte, sub, sup string) ([]byte, error) {
	anchor := "\nid: " + sub + "\n"
	i := bytes.Index(src, []byte(anchor))
	if i < 0 {
		return nil, fmt.Errorf("obo edit: no stanza for %s", sub)
	}
	at := i + len(anchor)
	out := make([]byte, 0, len(src)+len(sup)+8)
	out = append(out, src[:at]...)
	out = append(out, "is_a: "+sup+"\n"...)
	return append(out, src[at:]...), nil
}

// pickEdit chooses, from seed, a named pair (sub, sup) such that sup is
// not already an ancestor or descendant of sub in the reference, so the
// edit adds one subsumption without merging classes.
func pickEdit(ref *reference, seed int64) (sub, sup string) {
	rng := rand.New(rand.NewSource(seed))
	names := ref.names
	for {
		a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		if a == b {
			continue
		}
		if !ref.subsumes(b, a) && !ref.subsumes(a, b) {
			return a, b
		}
	}
}
