// Package dl implements the description-logic data model underlying the
// classifier: interned concept expressions, roles with hierarchy and
// transitivity, TBox axioms, negation-normal form, ontology metrics and
// expressivity detection (paper Sec. II).
//
// The supported constructors cover ALCHQ with transitive roles — ⊤, ⊥,
// concept names, ¬, ⊓, ⊔, ∃R.C, ∀R.C, ≥nR.C, ≤nR.C — which subsumes the
// EL/ELH+ corpora of Table IV and expresses the qualified cardinality
// restrictions (QCRs) that drive the complexity experiments of Table V.
package dl

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Op identifies the outermost constructor of a Concept.
type Op uint8

// Concept constructors.
const (
	OpTop    Op = iota // ⊤
	OpBottom           // ⊥
	OpName             // named (atomic) concept
	OpNot              // ¬C
	OpAnd              // C ⊓ D ⊓ ...
	OpOr               // C ⊔ D ⊔ ...
	OpSome             // ∃R.C
	OpAll              // ∀R.C
	OpMin              // ≥ n R.C
	OpMax              // ≤ n R.C
)

func (o Op) String() string {
	switch o {
	case OpTop:
		return "Top"
	case OpBottom:
		return "Bottom"
	case OpName:
		return "Name"
	case OpNot:
		return "Not"
	case OpAnd:
		return "And"
	case OpOr:
		return "Or"
	case OpSome:
		return "Some"
	case OpAll:
		return "All"
	case OpMin:
		return "Min"
	case OpMax:
		return "Max"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Concept is an interned concept expression. Concepts are created only
// through a Factory, which guarantees that structurally equal expressions
// are the same pointer; pointer equality is concept equality. A Concept is
// immutable after creation.
type Concept struct {
	// ID is a dense identifier unique within the owning Factory,
	// assigned in creation order.
	ID int32
	// Op is the outermost constructor.
	Op Op
	// Name is the concept name; set only for OpName.
	Name string
	// Role is the quantified role; set for OpSome, OpAll, OpMin, OpMax.
	Role *Role
	// N is the cardinality bound; set for OpMin and OpMax.
	N int
	// Args holds the operands: one concept for OpNot and the filler for
	// the quantifiers, and two or more sorted, deduplicated concepts for
	// OpAnd / OpOr.
	Args []*Concept

	// neg caches the NNF negation. It is set at most once (interning
	// makes the complement unique) and read lock-free on the reasoner
	// hot path, where ¬C lookups happen once per disjunct per rule pass.
	neg atomic.Pointer[Concept]
}

// IsAtomic reports whether c is ⊤, ⊥ or a concept name.
func (c *Concept) IsAtomic() bool {
	return c.Op == OpTop || c.Op == OpBottom || c.Op == OpName
}

// String renders the concept in conventional DL notation.
func (c *Concept) String() string {
	switch c.Op {
	case OpTop:
		return "⊤"
	case OpBottom:
		return "⊥"
	case OpName:
		return c.Name
	case OpNot:
		return "¬" + parens(c.Args[0])
	case OpAnd, OpOr:
		sep := " ⊓ "
		if c.Op == OpOr {
			sep = " ⊔ "
		}
		parts := make([]string, len(c.Args))
		for i, a := range c.Args {
			parts[i] = parens(a)
		}
		return strings.Join(parts, sep)
	case OpSome:
		return "∃" + c.Role.Name + "." + parens(c.Args[0])
	case OpAll:
		return "∀" + c.Role.Name + "." + parens(c.Args[0])
	case OpMin:
		return fmt.Sprintf("≥%d %s.%s", c.N, c.Role.Name, parens(c.Args[0]))
	case OpMax:
		return fmt.Sprintf("≤%d %s.%s", c.N, c.Role.Name, parens(c.Args[0]))
	}
	return fmt.Sprintf("<bad op %d>", c.Op)
}

func parens(c *Concept) string {
	if c.IsAtomic() || c.Op == OpNot {
		return c.String()
	}
	return "(" + c.String() + ")"
}

// Factory interns concepts and roles. All methods are safe for concurrent
// use; structurally equal expressions built concurrently resolve to the
// same pointer.
type Factory struct {
	mu        sync.Mutex
	concepts  map[string]*Concept
	roles     map[string]*Role
	byID      []*Concept
	rolesByID []*Role

	top    *Concept
	bottom *Concept
}

// NewFactory returns an empty factory with ⊤ and ⊥ pre-interned
// (⊤ always has ID 0 and ⊥ ID 1).
func NewFactory() *Factory {
	f := &Factory{
		concepts: make(map[string]*Concept),
		roles:    make(map[string]*Role),
	}
	f.top = f.intern("⊤", &Concept{Op: OpTop})
	f.bottom = f.intern("⊥", &Concept{Op: OpBottom})
	f.top.neg.Store(f.bottom)
	f.bottom.neg.Store(f.top)
	return f
}

// Top returns ⊤.
func (f *Factory) Top() *Concept { return f.top }

// Bottom returns ⊥.
func (f *Factory) Bottom() *Concept { return f.bottom }

// intern stores c under key if absent and returns the canonical pointer.
// Caller must not hold f.mu.
func (f *Factory) intern(key string, c *Concept) *Concept {
	f.mu.Lock()
	defer f.mu.Unlock()
	if got, ok := f.concepts[key]; ok {
		return got
	}
	c.ID = int32(len(f.byID))
	f.concepts[key] = c
	f.byID = append(f.byID, c)
	return c
}

// internBytes is intern for composite keys built as byte slices. On the
// hit path (the overwhelmingly common case once a classification run has
// warmed up) the map lookup uses string(key) without allocating; the key
// is materialized as a string only when a new concept is stored.
func (f *Factory) internBytes(key []byte, c *Concept) *Concept {
	f.mu.Lock()
	defer f.mu.Unlock()
	if got, ok := f.concepts[string(key)]; ok {
		return got
	}
	c.ID = int32(len(f.byID))
	f.concepts[string(key)] = c
	f.byID = append(f.byID, c)
	return c
}

// NumConcepts returns the number of interned concept expressions.
func (f *Factory) NumConcepts() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.byID)
}

// Name returns the interned named concept for name. Names "owl:Thing" and
// "owl:Nothing" resolve to ⊤ and ⊥.
func (f *Factory) Name(name string) *Concept {
	switch name {
	case "owl:Thing", "http://www.w3.org/2002/07/owl#Thing":
		return f.top
	case "owl:Nothing", "http://www.w3.org/2002/07/owl#Nothing":
		return f.bottom
	}
	return f.intern("N"+name, &Concept{Op: OpName, Name: name})
}

// Not returns the negation-normal-form complement of c. After the first
// call for a given c the answer is served from a lock-free cache — the
// tableau rules ask for complements constantly, so this must not touch
// the factory mutex on the hit path.
func (f *Factory) Not(c *Concept) *Concept {
	if n := c.neg.Load(); n != nil {
		return n
	}
	n := f.buildNot(c)
	if !c.neg.CompareAndSwap(nil, n) {
		return c.neg.Load()
	}
	n.neg.CompareAndSwap(nil, c)
	return n
}

// lookupNot returns the NNF complement of c if it is already interned,
// and nil otherwise, without interning anything. nary folds a
// complementary pair through it, so a concept's interned form does not
// depend on which negations were built before it: an operand's complement
// can be among the operands only if it is interned. ⊓ and ⊔ need no
// lookup, as their complement is the dual connective, which flattening
// keeps out of either's operand list.
func (f *Factory) lookupNot(c *Concept) *Concept {
	if n := c.neg.Load(); n != nil {
		return n
	}
	var buf [32]byte
	switch c.Op {
	case OpName:
		return f.lookup(append(append(buf[:0], "!N"...), c.Name...))
	case OpNot:
		return c.Args[0]
	case OpSome:
		if n := f.lookupNot(c.Args[0]); n != nil {
			return f.lookup(quantKey(buf[:0], 'A', c.Role, 0, n))
		}
	case OpAll:
		if n := f.lookupNot(c.Args[0]); n != nil {
			return f.lookup(quantKey(buf[:0], 'E', c.Role, 0, n))
		}
	case OpMin: // N ≥ 2: ≥1 is built as ∃
		return f.lookup(quantKey(buf[:0], 'M', c.Role, c.N-1, c.Args[0]))
	case OpMax: // N ≥ 1: ≤0 is built as ∀
		return f.lookup(quantKey(buf[:0], 'm', c.Role, c.N+1, c.Args[0]))
	}
	return nil
}

// lookup returns the concept interned under key, or nil.
func (f *Factory) lookup(key []byte) *Concept {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.concepts[string(key)]
}

// buildNot constructs ¬c pushed into NNF.
func (f *Factory) buildNot(c *Concept) *Concept {
	switch c.Op {
	case OpTop:
		return f.bottom
	case OpBottom:
		return f.top
	case OpName:
		return f.intern("!N"+c.Name, &Concept{Op: OpNot, Args: []*Concept{c}})
	case OpNot:
		return c.Args[0]
	case OpAnd:
		args := make([]*Concept, len(c.Args))
		for i, a := range c.Args {
			args[i] = f.Not(a)
		}
		return f.Or(args...)
	case OpOr:
		args := make([]*Concept, len(c.Args))
		for i, a := range c.Args {
			args[i] = f.Not(a)
		}
		return f.And(args...)
	case OpSome:
		return f.All(c.Role, f.Not(c.Args[0]))
	case OpAll:
		return f.Some(c.Role, f.Not(c.Args[0]))
	case OpMin:
		// ¬(≥ n R.C) = ≤ n-1 R.C; ¬(≥ 0 R.C) = ⊥.
		if c.N == 0 {
			return f.bottom
		}
		return f.Max(c.N-1, c.Role, c.Args[0])
	case OpMax:
		// ¬(≤ n R.C) = ≥ n+1 R.C.
		return f.Min(c.N+1, c.Role, c.Args[0])
	}
	panic(fmt.Sprintf("dl: buildNot on bad op %d", c.Op))
}

// And returns the conjunction of args in canonical form: nested
// conjunctions are flattened, duplicates removed, operands sorted by ID,
// ⊤ operands dropped, and the result collapses to ⊥ if any operand is ⊥
// or a complementary pair {A, ¬A} occurs.
func (f *Factory) And(args ...*Concept) *Concept {
	return f.nary(OpAnd, args)
}

// Or returns the disjunction of args with the dual canonicalization of And.
func (f *Factory) Or(args ...*Concept) *Concept {
	return f.nary(OpOr, args)
}

func (f *Factory) nary(op Op, args []*Concept) *Concept {
	neutral, absorbing := f.top, f.bottom
	if op == OpOr {
		neutral, absorbing = f.bottom, f.top
	}
	flat := make([]*Concept, 0, len(args))
	var flatten func(cs []*Concept) bool
	flatten = func(cs []*Concept) bool {
		for _, a := range cs {
			switch {
			case a == absorbing:
				return true
			case a == neutral:
				// drop
			case a.Op == op:
				if flatten(a.Args) {
					return true
				}
			default:
				flat = append(flat, a)
			}
		}
		return false
	}
	if flatten(args) {
		return absorbing
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].ID < flat[j].ID })
	// Dedupe (adjacent after sorting) and detect complementary pairs.
	uniq := flat[:0]
	for i, a := range flat {
		if i > 0 && a == flat[i-1] {
			continue
		}
		uniq = append(uniq, a)
	}
	for _, a := range uniq {
		n := f.lookupNot(a)
		if n == nil {
			continue
		}
		// uniq is sorted by ID: binary search for the complement.
		lo, hi := 0, len(uniq)
		for lo < hi {
			mid := (lo + hi) / 2
			if uniq[mid].ID < n.ID {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(uniq) && uniq[lo] == n {
			return absorbing
		}
	}
	switch len(uniq) {
	case 0:
		return neutral
	case 1:
		return uniq[0]
	}
	var keyBuf [66]byte // enough for 13 operands in place; longer keys spill
	key := keyBuf[:0]
	if op == OpAnd {
		key = append(key, '&')
	} else {
		key = append(key, '|')
	}
	for _, a := range uniq {
		key = appendID(key, a.ID)
	}
	own := make([]*Concept, len(uniq))
	copy(own, uniq)
	return f.internBytes(key, &Concept{Op: op, Args: own})
}

// Some returns ∃R.C. ∃R.⊥ collapses to ⊥.
func (f *Factory) Some(r *Role, c *Concept) *Concept {
	if c == f.bottom {
		return f.bottom
	}
	return f.quant('E', OpSome, r, 0, c)
}

// All returns ∀R.C. ∀R.⊤ collapses to ⊤.
func (f *Factory) All(r *Role, c *Concept) *Concept {
	if c == f.top {
		return f.top
	}
	return f.quant('A', OpAll, r, 0, c)
}

// Min returns ≥ n R.C. ≥0 collapses to ⊤, ≥1 to ∃R.C, and ≥n R.⊥ to ⊥.
func (f *Factory) Min(n int, r *Role, c *Concept) *Concept {
	if n < 0 {
		panic(fmt.Sprintf("dl: Min with negative cardinality %d", n))
	}
	if n == 0 {
		return f.top
	}
	if c == f.bottom {
		return f.bottom
	}
	if n == 1 {
		return f.Some(r, c)
	}
	return f.quant('m', OpMin, r, n, c)
}

// Max returns ≤ n R.C. ≤n R.⊥ collapses to ⊤ and ≤0 R.C canonicalizes to
// the equivalent ∀R.¬C so that double negation is structurally stable.
func (f *Factory) Max(n int, r *Role, c *Concept) *Concept {
	if n < 0 {
		panic(fmt.Sprintf("dl: Max with negative cardinality %d", n))
	}
	if c == f.bottom {
		return f.top
	}
	if n == 0 {
		return f.All(r, f.Not(c))
	}
	return f.quant('M', OpMax, r, n, c)
}

func (f *Factory) quant(tag byte, op Op, r *Role, n int, c *Concept) *Concept {
	var keyBuf [16]byte
	return f.internBytes(quantKey(keyBuf[:0], tag, r, n, c), &Concept{Op: op, Role: r, N: n, Args: []*Concept{c}})
}

// quantKey appends the interning key of a quantified concept to key.
func quantKey(key []byte, tag byte, r *Role, n int, c *Concept) []byte {
	key = append(key, tag)
	key = appendID(key, r.ID)
	key = appendID(key, int32(n))
	return appendID(key, c.ID)
}

func appendID(b []byte, id int32) []byte {
	return append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), ',')
}
