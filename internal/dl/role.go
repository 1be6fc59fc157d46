package dl

import "parowl/internal/bitset"

// Role is an interned object property (paper: role, R ∈ N_R). Roles carry
// the role-hierarchy and transitivity information contributed by
// SubObjectPropertyOf and TransitiveObjectProperty axioms; the tableau's
// ∀⁺-rule and the EL reasoner's chain rules read it from here.
//
// A Role's hierarchy fields are mutated only while the owning TBox is being
// built (single-goroutine); after Freeze the structure is read-only and
// safe to share across reasoner workers.
type Role struct {
	// ID is dense and unique within the owning Factory.
	ID int32
	// Name is the role name.
	Name string
	// Transitive records a TransitiveObjectProperty axiom on this role.
	Transitive bool

	supers    []*Role        // direct super-roles (from SubObjectPropertyOf)
	ancestors map[*Role]bool // reflexive-transitive closure, built by Freeze

	// ancBits is the same closure as a bitset over dense role IDs, built
	// by Freeze. IsSubRoleOf is the innermost test of the tableau's
	// ∀/∀⁺/≤ rules; a word-indexed bit probe beats a map lookup there.
	ancBits *bitset.Set
}

// Role returns the interned role with the given name, creating it if
// necessary.
func (f *Factory) Role(name string) *Role {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r, ok := f.roles[name]; ok {
		return r
	}
	r := &Role{ID: int32(len(f.rolesByID)), Name: name}
	f.roles[name] = r
	f.rolesByID = append(f.rolesByID, r)
	return r
}

// NumRoles returns the number of interned roles.
func (f *Factory) NumRoles() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.rolesByID)
}

// Roles returns all interned roles in ID order.
func (f *Factory) Roles() []*Role {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Role, len(f.rolesByID))
	copy(out, f.rolesByID)
	return out
}

// AddSuper records the role inclusion r ⊑ s. It must be called only during
// TBox construction, before Freeze.
func (r *Role) AddSuper(s *Role) {
	for _, have := range r.supers {
		if have == s {
			return
		}
	}
	r.supers = append(r.supers, s)
	r.ancestors = nil
	r.ancBits = nil
}

// Supers returns the direct super-roles of r.
func (r *Role) Supers() []*Role { return r.supers }

// IsSubRoleOf reports whether r ⊑* s in the reflexive-transitive closure of
// the role hierarchy. Before Freeze it computes the closure on the fly;
// after Freeze it is a map lookup.
func (r *Role) IsSubRoleOf(s *Role) bool {
	if r == s {
		return true
	}
	if r.ancBits != nil {
		// Roles interned after Freeze are outside the closure: they can
		// have gained no super-role axioms, so the answer is false.
		return int(s.ID) < r.ancBits.Len() && r.ancBits.Test(int(s.ID))
	}
	if r.ancestors != nil {
		return r.ancestors[s]
	}
	return r.reaches(s, map[*Role]bool{})
}

func (r *Role) reaches(s *Role, seen map[*Role]bool) bool {
	if r == s {
		return true
	}
	if seen[r] {
		return false
	}
	seen[r] = true
	for _, sup := range r.supers {
		if sup.reaches(s, seen) {
			return true
		}
	}
	return false
}

// Ancestors returns the reflexive-transitive closure of r's super-roles.
// The result must not be mutated.
func (r *Role) Ancestors() map[*Role]bool {
	if r.ancestors != nil {
		return r.ancestors
	}
	anc := map[*Role]bool{r: true}
	var walk func(x *Role)
	walk = func(x *Role) {
		for _, sup := range x.supers {
			if !anc[sup] {
				anc[sup] = true
				walk(sup)
			}
		}
	}
	walk(r)
	return anc
}

// freeze caches the ancestor closure so concurrent readers never compute
// it: once as a map (the Ancestors API) and once as a bitset over the
// dense role IDs known at freeze time (the IsSubRoleOf hot path).
func (r *Role) freeze(numRoles int) {
	r.ancestors = r.Ancestors()
	r.ancBits = bitset.New(numRoles)
	for anc := range r.ancestors {
		if int(anc.ID) < numRoles {
			r.ancBits.Set(int(anc.ID))
		}
	}
}
