// Package module implements syntactic ⊥-locality module extraction
// (Cuenca Grau et al., "Modular Reuse of Ontologies"): given a seed
// signature Σ, it returns the subset of axioms that can affect any
// entailment over Σ. Classifying the module gives exactly the same
// subsumptions between Σ-concepts as classifying the whole ontology —
// the standard preprocessing step for applying a classifier like this
// repository's to very large ontologies (the paper's 300 000-concept
// ambition) one coherent fragment at a time.
package module

import (
	"fmt"

	"parowl/internal/dl"
)

// Signature is a set of concept and role names.
type Signature struct {
	concepts map[string]bool
	roles    map[string]bool
}

// NewSignature builds a signature from concept and role names.
func NewSignature(conceptNames, roleNames []string) *Signature {
	s := &Signature{concepts: map[string]bool{}, roles: map[string]bool{}}
	for _, n := range conceptNames {
		s.concepts[n] = true
	}
	for _, n := range roleNames {
		s.roles[n] = true
	}
	return s
}

// addAxiomSignature grows s with every symbol of ax; reports change.
func (s *Signature) addAxiomSignature(ax dl.Axiom) bool {
	changed := false
	addC := func(c *dl.Concept) {
		walkSymbols(c, func(name string, isRole bool) {
			m := s.concepts
			if isRole {
				m = s.roles
			}
			if !m[name] {
				m[name] = true
				changed = true
			}
		})
	}
	if ax.Sub != nil {
		addC(ax.Sub)
	}
	if ax.Sup != nil {
		addC(ax.Sup)
	}
	if ax.SubRole != nil && !s.roles[ax.SubRole.Name] {
		s.roles[ax.SubRole.Name] = true
		changed = true
	}
	if ax.SupRole != nil && !s.roles[ax.SupRole.Name] {
		s.roles[ax.SupRole.Name] = true
		changed = true
	}
	return changed
}

func walkSymbols(c *dl.Concept, fn func(name string, isRole bool)) {
	switch c.Op {
	case dl.OpName:
		fn(c.Name, false)
	case dl.OpSome, dl.OpAll, dl.OpMin, dl.OpMax:
		fn(c.Role.Name, true)
	}
	for _, a := range c.Args {
		walkSymbols(a, fn)
	}
}

// botEquivalent reports whether c is equivalent to ⊥ under every
// interpretation that maps symbols outside Σ to ⊥ / the empty role.
func (s *Signature) botEquivalent(c *dl.Concept) bool {
	switch c.Op {
	case dl.OpBottom:
		return true
	case dl.OpName:
		return !s.concepts[c.Name]
	case dl.OpNot:
		return s.topEquivalent(c.Args[0])
	case dl.OpAnd:
		for _, a := range c.Args {
			if s.botEquivalent(a) {
				return true
			}
		}
		return false
	case dl.OpOr:
		for _, a := range c.Args {
			if !s.botEquivalent(a) {
				return false
			}
		}
		return true
	case dl.OpSome, dl.OpMin: // the factory guarantees Min has n ≥ 2
		return !s.roles[c.Role.Name] || s.botEquivalent(c.Args[0])
	default: // ⊤, ∀, ≤ are never ⊥-equivalent under the ⊥-interpretation
		return false
	}
}

// topEquivalent reports whether c is equivalent to ⊤ under every
// ⊥-interpretation of the symbols outside Σ.
func (s *Signature) topEquivalent(c *dl.Concept) bool {
	switch c.Op {
	case dl.OpTop:
		return true
	case dl.OpNot:
		return s.botEquivalent(c.Args[0])
	case dl.OpAnd:
		for _, a := range c.Args {
			if !s.topEquivalent(a) {
				return false
			}
		}
		return true
	case dl.OpOr:
		for _, a := range c.Args {
			if s.topEquivalent(a) {
				return true
			}
		}
		return false
	case dl.OpAll: // ∀r.C over an empty role is ⊤
		return !s.roles[c.Role.Name] || s.topEquivalent(c.Args[0])
	case dl.OpMax: // ≤n of an empty role or ⊥ filler is ⊤
		return !s.roles[c.Role.Name] || s.botEquivalent(c.Args[0])
	default:
		return false
	}
}

// local reports whether ax is ⊥-local w.r.t. s: every ⊥-interpretation of
// the out-of-signature symbols makes it a tautology, so it cannot affect
// Σ-entailments.
func (s *Signature) local(ax dl.Axiom) bool {
	switch ax.Kind {
	case dl.AxSubClassOf:
		return s.botEquivalent(ax.Sub) || s.topEquivalent(ax.Sup)
	case dl.AxEquivalent:
		return (s.botEquivalent(ax.Sub) && s.botEquivalent(ax.Sup)) ||
			(s.topEquivalent(ax.Sub) && s.topEquivalent(ax.Sup))
	case dl.AxDisjoint:
		return s.botEquivalent(ax.Sub) || s.botEquivalent(ax.Sup)
	case dl.AxSubRole, dl.AxTransitiveRole:
		return !s.roles[ax.SubRole.Name]
	default: // declarations, annotations: no logical content
		return true
	}
}

// Extract computes the ⊥-locality module of t for the given seed concept
// names and returns it as a fresh TBox (own factory) whose name carries a
// "-module" suffix. Declarations are kept for concepts that survive into
// the module's signature.
func Extract(t *dl.TBox, seedConcepts []string) (*dl.TBox, error) {
	for _, name := range seedConcepts {
		found := false
		for _, c := range t.NamedConcepts() {
			if c.Name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("module: concept %q not in ontology %q", name, t.Name)
		}
	}
	sig := NewSignature(seedConcepts, nil)
	axioms := t.Axioms()
	inModule := make([]bool, len(axioms))
	for changed := true; changed; {
		changed = false
		for i, ax := range axioms {
			if inModule[i] {
				continue
			}
			switch ax.Kind {
			case dl.AxDeclaration, dl.AxAnnotation:
				continue // handled after the logical fixpoint
			}
			if !sig.local(ax) {
				inModule[i] = true
				sig.addAxiomSignature(ax)
				changed = true
			}
		}
	}

	out := dl.NewTBox(t.Name + "-module")
	f := out.Factory
	for _, c := range t.NamedConcepts() {
		if sig.concepts[c.Name] {
			out.Declare(c.Name)
		}
	}
	for i, ax := range axioms {
		switch ax.Kind {
		case dl.AxDeclaration:
			if sig.concepts[ax.Sub.Name] {
				out.DeclarationAxiom(out.Declare(ax.Sub.Name))
			}
			continue
		case dl.AxAnnotation:
			if sig.concepts[ax.Sub.Name] {
				out.AnnotationAxiom(out.Declare(ax.Sub.Name))
			}
			continue
		}
		if !inModule[i] {
			continue
		}
		switch ax.Kind {
		case dl.AxSubClassOf:
			out.SubClassOf(translate(f, ax.Sub), translate(f, ax.Sup))
		case dl.AxEquivalent:
			out.EquivalentClasses(translate(f, ax.Sub), translate(f, ax.Sup))
		case dl.AxDisjoint:
			out.DisjointClasses(translate(f, ax.Sub), translate(f, ax.Sup))
		case dl.AxSubRole:
			out.SubObjectPropertyOf(f.Role(ax.SubRole.Name), f.Role(ax.SupRole.Name))
		case dl.AxTransitiveRole:
			out.TransitiveObjectProperty(f.Role(ax.SubRole.Name))
		}
	}
	out.Freeze()
	return out, nil
}

// translate rebuilds concept c inside factory f (concepts are interned
// per factory and cannot be shared across TBoxes).
func translate(f *dl.Factory, c *dl.Concept) *dl.Concept {
	switch c.Op {
	case dl.OpTop:
		return f.Top()
	case dl.OpBottom:
		return f.Bottom()
	case dl.OpName:
		return f.Name(c.Name)
	case dl.OpNot:
		return f.Not(translate(f, c.Args[0]))
	case dl.OpAnd, dl.OpOr:
		args := make([]*dl.Concept, len(c.Args))
		for i, a := range c.Args {
			args[i] = translate(f, a)
		}
		if c.Op == dl.OpAnd {
			return f.And(args...)
		}
		return f.Or(args...)
	case dl.OpSome:
		return f.Some(f.Role(c.Role.Name), translate(f, c.Args[0]))
	case dl.OpAll:
		return f.All(f.Role(c.Role.Name), translate(f, c.Args[0]))
	case dl.OpMin:
		return f.Min(c.N, f.Role(c.Role.Name), translate(f, c.Args[0]))
	case dl.OpMax:
		return f.Max(c.N, f.Role(c.Role.Name), translate(f, c.Args[0]))
	}
	panic(fmt.Sprintf("module: bad concept op %d", c.Op))
}
