package main

import (
	"context"
	"fmt"
	"math/rand"

	"parowl"
)

// request is one query of the mix: a single query spec, or a batch of
// subsumption pairs (Batch non-nil) sent as one POST /subsumes.
type request struct {
	Onto  string // registry id of the ontology it targets
	Q     parowl.Query
	Spec  string
	Batch [][2]string
}

// batchPairs is the size of one batched subsumption request.
const batchPairs = 16

// mixer draws requests for one ontology: concepts from a Zipf-skewed
// pool over a seeded permutation of the named concepts, ops in fixed
// shares (mostly subsumes, some ancestors/depth/lca, some batches).
// Half the subsumes pairs are drawn from the reference's true
// subsumptions so answers are not all false.
type mixer struct {
	onto string
	ref  *reference
	pool []string
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newMixer(onto string, ref *reference, seed int64) *mixer {
	rng := rand.New(rand.NewSource(seed))
	pool := append([]string(nil), ref.names...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return &mixer{
		onto: onto, ref: ref, pool: pool, rng: rng,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1)),
	}
}

func (m *mixer) concept() string { return m.pool[m.zipf.Uint64()] }

// pair returns (sup, sub): half the time sup is a named ancestor of sub.
func (m *mixer) pair() (string, string) {
	sub := m.concept()
	if m.rng.Intn(2) == 0 {
		if c := m.ref.byName[sub]; c != nil {
			var named []string
			for _, n := range m.ref.tax.Ancestors(c) {
				if cc := n.Canonical(); cc.Op == parowl.OpName {
					named = append(named, cc.Name)
				}
			}
			if len(named) > 0 {
				return named[m.rng.Intn(len(named))], sub
			}
		}
	}
	return m.concept(), sub
}

func (m *mixer) next() request {
	r := request{Onto: m.onto}
	switch x := m.rng.Intn(100); {
	case x < 70:
		sup, sub := m.pair()
		r.Q = parowl.Query{Op: "subsumes", Args: []string{sup, sub}}
	case x < 80:
		r.Q = parowl.Query{Op: "ancestors", Args: []string{m.concept()}}
	case x < 90:
		r.Q = parowl.Query{Op: "depth", Args: []string{m.concept()}}
	case x < 95:
		r.Q = parowl.Query{Op: "lca", Args: []string{m.concept(), m.concept()}}
	default:
		r.Batch = make([][2]string, batchPairs)
		for i := range r.Batch {
			sup, sub := m.pair()
			r.Batch[i] = [2]string{sup, sub}
		}
		return r
	}
	r.Spec = r.Q.Op + ":" + r.Q.Args[0]
	if len(r.Q.Args) == 2 {
		r.Spec += "," + r.Q.Args[1]
	}
	return r
}

// expect is the reference answer to one request: a canonical answer
// line for a single query, the results for a batch.
type expect struct {
	Line  string
	Batch []bool
}

// expect computes r's answer from the reference by DAG walk.
func (r request) expect(ref *reference) (expect, error) {
	if r.Batch != nil {
		e := expect{Batch: make([]bool, len(r.Batch))}
		for i, p := range r.Batch {
			e.Batch[i] = ref.subsumes(p[0], p[1])
		}
		return e, nil
	}
	line, err := ref.answer(r.Q)
	return expect{Line: line}, err
}

// verify compares a served answer with the reference's. For a single
// query, lines is the answer text; for a batch, got holds the results.
func (r request) verify(e expect, lines []string, got []bool) error {
	if r.Batch != nil {
		if len(got) != len(r.Batch) {
			return fmt.Errorf("batch: %d results for %d pairs", len(got), len(r.Batch))
		}
		for i, p := range r.Batch {
			if got[i] != e.Batch[i] {
				return fmt.Errorf("batch subsumes(%s, %s) = %v, reference %v", p[0], p[1], got[i], e.Batch[i])
			}
		}
		return nil
	}
	if len(lines) != 1 {
		return fmt.Errorf("%s: %d answer lines", r.Spec, len(lines))
	}
	got1, err := canonLine(r.Q.Op, lines[0])
	if err != nil {
		return err
	}
	if got1 != e.Line {
		return fmt.Errorf("%s = %q, reference %q", r.Spec, got1, e.Line)
	}
	return nil
}

// evalLocal answers r in-process on a snapshot, the way a library user
// (or owlclass -query) would.
func (r request) evalLocal(ctx context.Context, s *parowl.Snapshot) ([]string, []bool, error) {
	if r.Batch != nil {
		got, err := s.SubsumesBatch(r.Batch)
		return nil, got, err
	}
	lines, err := s.EvalSpec(ctx, r.Spec)
	return lines, nil, err
}

// reqSet is a fixed request list with its reference answers.
type reqSet struct {
	reqs []request
	want []expect
}

// newReqSet draws n requests from m and computes their answers.
func newReqSet(m *mixer, n int) (reqSet, error) {
	w := reqSet{reqs: make([]request, n), want: make([]expect, n)}
	for i := range w.reqs {
		w.reqs[i] = m.next()
		e, err := w.reqs[i].expect(m.ref)
		if err != nil {
			return w, err
		}
		w.want[i] = e
	}
	return w, nil
}
