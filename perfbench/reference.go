package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"parowl"
	"parowl/internal/el"
)

// reference is a taxonomy computed by a different algorithm than the one
// under test, queried only by walking its DAG: no kernel is ever
// attached to it, so its answers share no code with the kernel that
// serves the program's answers.
type reference struct {
	tax    *parowl.Taxonomy
	byName map[string]*parowl.Concept
	names  []string // named concepts, in declaration order
	print  string   // canonical class-and-edge listing
}

func newReference(ont *parowl.Ontology, tax *parowl.Taxonomy) *reference {
	r := &reference{tax: tax, byName: map[string]*parowl.Concept{}, print: tax.Fingerprint()}
	for _, c := range ont.TBox().NamedConcepts() {
		r.byName[c.Name] = c
		r.names = append(r.names, c.Name)
	}
	return r
}

// elReference classifies b with the EL saturation classifier.
func elReference(ctx context.Context, b built) (*reference, time.Duration, error) {
	ont, err := b.load(parowl.NewEngine())
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	r, err := el.New(ont.TBox(), el.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("el reference %s: %w", b.ID, err)
	}
	tax, err := r.ClassifyContext(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("el reference %s: %w", b.ID, err)
	}
	return newReference(ont, tax), time.Since(start), nil
}

// traversalReference classifies b with the sequential enhanced
// traversal over the tableau plug-in.
func traversalReference(ctx context.Context, b built) (*reference, time.Duration, error) {
	ont, err := b.load(parowl.NewEngine())
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	tax, err := ont.ClassifyEnhancedTraversal(ctx, parowl.NewTableauReasoner(ont.TBox()))
	if err != nil {
		return nil, 0, fmt.Errorf("traversal reference %s: %w", b.ID, err)
	}
	return newReference(ont, tax), time.Since(start), nil
}

// subsumes reports sub ⊑ sup by DAG walk.
func (r *reference) subsumes(sup, sub string) bool {
	a, b := r.byName[sup], r.byName[sub]
	if a == nil || b == nil {
		return false
	}
	return r.tax.NodeOf(a) == r.tax.NodeOf(b) || r.tax.IsAncestor(a, b)
}

// answer computes the canonical answer to one query by DAG walk.
func (r *reference) answer(q parowl.Query) (string, error) {
	args := make([]*parowl.Concept, len(q.Args))
	for i, n := range q.Args {
		if args[i] = r.byName[n]; args[i] == nil {
			return "", fmt.Errorf("reference: unknown concept %q", n)
		}
	}
	switch q.Op {
	case "subsumes":
		return strconv.FormatBool(r.subsumes(q.Args[0], q.Args[1])), nil
	case "depth":
		return strconv.Itoa(r.tax.Depth(args[0])), nil
	case "ancestors":
		return canonNodes(r.tax.Ancestors(args[0])), nil
	case "lca":
		return canonNodes(r.tax.LCA(args[0], args[1])), nil
	}
	return "", fmt.Errorf("reference: op %q not in the query mix", q.Op)
}

// canonNodes renders a node set order-independently: each class as its
// sorted member names, the classes sorted.
func canonNodes(nodes []*parowl.TaxonomyNode) string {
	labels := make([]string, len(nodes))
	for i, n := range nodes {
		labels[i] = canonLabel(n.Label())
	}
	sort.Strings(labels)
	return strings.Join(labels, ", ")
}

func canonLabel(label string) string {
	names := strings.Split(label, " ≡ ")
	sort.Strings(names)
	return strings.Join(names, "≡")
}

// canonLine turns one served answer line ("op(args) = rhs") into the
// same canonical form answer produces.
func canonLine(op, line string) (string, error) {
	i := strings.Index(line, " = ")
	if i < 0 {
		return "", fmt.Errorf("malformed answer %q", line)
	}
	rhs := line[i+3:]
	switch op {
	case "ancestors", "lca":
		if rhs == "(none)" {
			return "", nil
		}
		labels := strings.Split(rhs, ", ")
		for j, l := range labels {
			labels[j] = canonLabel(l)
		}
		sort.Strings(labels)
		return strings.Join(labels, ", "), nil
	}
	return rhs, nil
}
