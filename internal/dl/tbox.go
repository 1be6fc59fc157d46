package dl

import (
	"fmt"
)

// AxiomKind discriminates TBox axiom types.
type AxiomKind uint8

// Axiom kinds.
const (
	AxSubClassOf     AxiomKind = iota // C ⊑ D
	AxEquivalent                      // C ≡ D
	AxDisjoint                        // C ⊓ D ⊑ ⊥ (pairwise from DisjointClasses)
	AxSubRole                         // R ⊑ S
	AxTransitiveRole                  // Trans(R)
	AxDeclaration                     // Declaration(Class(C)) — no logical content
	AxAnnotation                      // annotation assertion on C — no logical content
)

func (k AxiomKind) String() string {
	switch k {
	case AxSubClassOf:
		return "SubClassOf"
	case AxEquivalent:
		return "EquivalentClasses"
	case AxDisjoint:
		return "DisjointClasses"
	case AxSubRole:
		return "SubObjectPropertyOf"
	case AxTransitiveRole:
		return "TransitiveObjectProperty"
	case AxDeclaration:
		return "Declaration"
	case AxAnnotation:
		return "AnnotationAssertion"
	}
	return fmt.Sprintf("AxiomKind(%d)", uint8(k))
}

// Axiom is a single terminological axiom. Concept fields are set for the
// class-axiom kinds, role fields for the role-axiom kinds.
type Axiom struct {
	Kind AxiomKind
	// Sub ⊑ Sup for AxSubClassOf; the two sides for AxEquivalent and
	// AxDisjoint.
	Sub, Sup *Concept
	// SubRole ⊑ SupRole for AxSubRole; SubRole is the transitive role for
	// AxTransitiveRole.
	SubRole, SupRole *Role
}

// String renders the axiom in DL notation.
func (a Axiom) String() string {
	switch a.Kind {
	case AxSubClassOf:
		return fmt.Sprintf("%s ⊑ %s", a.Sub, a.Sup)
	case AxEquivalent:
		return fmt.Sprintf("%s ≡ %s", a.Sub, a.Sup)
	case AxDisjoint:
		return fmt.Sprintf("Disjoint(%s, %s)", a.Sub, a.Sup)
	case AxSubRole:
		return fmt.Sprintf("%s ⊑ %s", a.SubRole.Name, a.SupRole.Name)
	case AxTransitiveRole:
		return fmt.Sprintf("Trans(%s)", a.SubRole.Name)
	}
	return "<bad axiom>"
}

// TBox is a terminology: a set of axioms over concepts and roles interned
// in a single Factory. Building a TBox is single-goroutine; after Freeze it
// is immutable and safe for concurrent readers.
type TBox struct {
	// Name labels the ontology (file stem or generator profile).
	Name string
	// Factory interns this TBox's concepts and roles.
	Factory *Factory

	axioms  []Axiom
	named   []*Concept // declared/used named concepts, in first-use order
	nameSet map[*Concept]bool
	frozen  bool
}

// NewTBox returns an empty TBox with a fresh Factory.
func NewTBox(name string) *TBox {
	return &TBox{
		Name:    name,
		Factory: NewFactory(),
		nameSet: make(map[*Concept]bool),
	}
}

func (t *TBox) mustMutable() {
	if t.frozen {
		panic("dl: TBox mutated after Freeze")
	}
}

// Declare registers a named concept so it participates in classification
// even if no axiom mentions it.
func (t *TBox) Declare(name string) *Concept {
	t.mustMutable()
	c := t.Factory.Name(name)
	t.noteNames(c)
	return c
}

// noteNames records every named concept occurring in c.
func (t *TBox) noteNames(c *Concept) {
	if c.Op == OpName && !t.nameSet[c] {
		t.nameSet[c] = true
		t.named = append(t.named, c)
	}
	for _, a := range c.Args {
		t.noteNames(a)
	}
}

// SubClassOf adds the GCI sub ⊑ sup.
func (t *TBox) SubClassOf(sub, sup *Concept) {
	t.mustMutable()
	t.noteNames(sub)
	t.noteNames(sup)
	t.axioms = append(t.axioms, Axiom{Kind: AxSubClassOf, Sub: sub, Sup: sup})
}

// EquivalentClasses adds a ≡ b.
func (t *TBox) EquivalentClasses(a, b *Concept) {
	t.mustMutable()
	t.noteNames(a)
	t.noteNames(b)
	t.axioms = append(t.axioms, Axiom{Kind: AxEquivalent, Sub: a, Sup: b})
}

// DisjointClasses adds pairwise disjointness for all of cs.
func (t *TBox) DisjointClasses(cs ...*Concept) {
	t.mustMutable()
	for i := range cs {
		t.noteNames(cs[i])
		for j := i + 1; j < len(cs); j++ {
			t.axioms = append(t.axioms, Axiom{Kind: AxDisjoint, Sub: cs[i], Sup: cs[j]})
		}
	}
}

// SubObjectPropertyOf adds the role inclusion sub ⊑ sup.
func (t *TBox) SubObjectPropertyOf(sub, sup *Role) {
	t.mustMutable()
	sub.AddSuper(sup)
	t.axioms = append(t.axioms, Axiom{Kind: AxSubRole, SubRole: sub, SupRole: sup})
}

// TransitiveObjectProperty marks r transitive.
func (t *TBox) TransitiveObjectProperty(r *Role) {
	t.mustMutable()
	r.Transitive = true
	t.axioms = append(t.axioms, Axiom{Kind: AxTransitiveRole, SubRole: r})
}

// DeclarationAxiom records an explicit Declaration(Class(c)) axiom. It
// carries no logical content but counts in the ontology's axiom metrics,
// as OWL tooling reports it.
func (t *TBox) DeclarationAxiom(c *Concept) {
	t.mustMutable()
	t.noteNames(c)
	t.axioms = append(t.axioms, Axiom{Kind: AxDeclaration, Sub: c})
}

// AnnotationAxiom records an annotation assertion on c (e.g. an rdfs:label
// in the source file). No logical content; counted in axiom metrics.
func (t *TBox) AnnotationAxiom(c *Concept) {
	t.mustMutable()
	t.noteNames(c)
	t.axioms = append(t.axioms, Axiom{Kind: AxAnnotation, Sub: c})
}

// Freeze finalizes the TBox: role-hierarchy closures are cached (as maps
// and as bitsets over the role IDs interned so far), and further mutation
// panics. Freeze is idempotent.
func (t *TBox) Freeze() {
	if t.frozen {
		return
	}
	t.frozen = true
	numRoles := t.Factory.NumRoles()
	for _, r := range t.Factory.Roles() {
		r.freeze(numRoles)
	}
}

// Axioms returns the axiom list. The caller must not mutate it.
func (t *TBox) Axioms() []Axiom { return t.axioms }

// NamedConcepts returns all named concepts in first-use order (this is the
// paper's N_O, the node set for classification). The caller must not
// mutate the returned slice.
func (t *TBox) NamedConcepts() []*Concept { return t.named }

// NumNamed returns len(NamedConcepts()).
func (t *TBox) NumNamed() int { return len(t.named) }

// AsGCIs lowers every class axiom to plain GCIs: C ≡ D becomes C ⊑ D and
// D ⊑ C; Disjoint(C,D) becomes C ⊓ D ⊑ ⊥.
func (t *TBox) AsGCIs() []Axiom {
	f := t.Factory
	out := make([]Axiom, 0, len(t.axioms))
	for _, a := range t.axioms {
		switch a.Kind {
		case AxSubClassOf:
			out = append(out, a)
		case AxEquivalent:
			out = append(out,
				Axiom{Kind: AxSubClassOf, Sub: a.Sub, Sup: a.Sup},
				Axiom{Kind: AxSubClassOf, Sub: a.Sup, Sup: a.Sub})
		case AxDisjoint:
			out = append(out, Axiom{Kind: AxSubClassOf, Sub: f.And(a.Sub, a.Sup), Sup: f.Bottom()})
		}
	}
	return out
}
