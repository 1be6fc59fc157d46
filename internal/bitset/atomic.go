package bitset

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Atomic is a fixed-capacity bit set whose per-bit operations are atomic
// and safe for concurrent use without locks. Bulk operations (Count,
// IsEmpty, Snapshot, ForEach) read a word-by-word snapshot: they are safe
// to call concurrently but observe each word at a possibly different
// instant, which is exactly the semantics the classifier needs for its
// progress checks (the set only shrinks monotonically during a phase).
type Atomic struct {
	n     int
	words []atomic.Uint64
}

// NewAtomic returns an Atomic set able to hold bits 0..n-1, all clear.
func NewAtomic(n int) *Atomic {
	return &Atomic{n: n, words: make([]atomic.Uint64, wordsFor(n))}
}

// Len returns the capacity in bits.
func (a *Atomic) Len() int { return a.n }

func (a *Atomic) check(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, a.n))
	}
}

// Set sets bit i and reports whether it was previously clear (i.e. whether
// this call changed the set).
func (a *Atomic) Set(i int) bool {
	a.check(i)
	mask := uint64(1) << (uint(i) % wordBits)
	return orOld(&a.words[i/wordBits], mask)&mask == 0
}

// Clear clears bit i and reports whether it was previously set.
func (a *Atomic) Clear(i int) bool {
	a.check(i)
	mask := uint64(1) << (uint(i) % wordBits)
	return andOld(&a.words[i/wordBits], ^mask)&mask != 0
}

// orOld ORs v into *w and returns the previous value; andOld is the AND
// counterpart. They are CompareAndSwap loops rather than the
// value-returning atomic.Uint64.Or/And, which go1.24.0 miscompiles on
// amd64: the scratch register of its CAS loop can clobber a live value
// of the caller. A word that already holds the result costs one load.
func orOld(w *atomic.Uint64, v uint64) uint64 {
	for {
		old := w.Load()
		if old|v == old || w.CompareAndSwap(old, old|v) {
			return old
		}
	}
}

func andOld(w *atomic.Uint64, v uint64) uint64 {
	for {
		old := w.Load()
		if old&v == old || w.CompareAndSwap(old, old&v) {
			return old
		}
	}
}

// Test reports whether bit i is set.
func (a *Atomic) Test(i int) bool {
	a.check(i)
	return a.words[i/wordBits].Load()&(1<<(uint(i)%wordBits)) != 0
}

// TestAndSet atomically sets bit i and reports whether it was already set.
// This implements the paper's tested() check-then-claim in one step so two
// workers can never both claim the same untested pair.
func (a *Atomic) TestAndSet(i int) bool {
	return !a.Set(i)
}

// FillAll sets every bit in [0, Len).
func (a *Atomic) FillAll() {
	full := ^uint64(0)
	for w := range a.words {
		a.words[w].Store(full)
	}
	if rem := a.n % wordBits; rem != 0 && len(a.words) > 0 {
		a.words[len(a.words)-1].Store((1 << uint(rem)) - 1)
	}
}

// FillRange sets every bit in [lo, hi), one atomic OR per word.
func (a *Atomic) FillRange(lo, hi int) {
	if lo < 0 || hi > a.n || lo > hi {
		panic(fmt.Sprintf("bitset: range [%d,%d) out of range [0,%d)", lo, hi, a.n))
	}
	for lo < hi {
		w := lo / wordBits
		end := min(hi, (w+1)*wordBits)
		a.words[w].Or(rangeMask(lo%wordBits, end-w*wordBits))
		lo = end
	}
}

// rangeMask returns a word with bits [lo, hi) set, 0 ≤ lo < hi ≤ 64.
func rangeMask(lo, hi int) uint64 {
	return (^uint64(0) >> uint(wordBits-(hi-lo))) << uint(lo)
}

// ClearAll clears every bit.
func (a *Atomic) ClearAll() {
	for w := range a.words {
		a.words[w].Store(0)
	}
}

// ClearSet clears every bit of s, one atomic AND per word, and reports
// how many of them were set. s must have capacity Len().
func (a *Atomic) ClearSet(s *Set) int {
	if s.n != a.n {
		panic(fmt.Sprintf("bitset: size mismatch %d vs %d", s.n, a.n))
	}
	c := 0
	for i, w := range s.words {
		if w != 0 {
			c += bits.OnesCount64(andOld(&a.words[i], ^w) & w)
		}
	}
	return c
}

// Word loads word i of the set: bits 64i to 64i+63.
func (a *Atomic) Word(i int) uint64 { return a.words[i].Load() }

// ClearWord clears the bits of mask in word i with one atomic AND and
// returns those of them that were set.
func (a *Atomic) ClearWord(i int, mask uint64) uint64 {
	return andOld(&a.words[i], ^mask) & mask
}

// Count returns the number of set bits in a word-by-word snapshot.
func (a *Atomic) Count() int {
	c := 0
	for w := range a.words {
		c += bits.OnesCount64(a.words[w].Load())
	}
	return c
}

// IsEmpty reports whether a word-by-word snapshot has no set bits.
func (a *Atomic) IsEmpty() bool {
	for w := range a.words {
		if a.words[w].Load() != 0 {
			return false
		}
	}
	return true
}

// Snapshot copies the current contents into a plain Set.
func (a *Atomic) Snapshot() *Set {
	s := New(a.n)
	for w := range a.words {
		s.words[w] = a.words[w].Load()
	}
	return s
}

// ForEach calls fn for every bit set in a word-by-word snapshot, in
// ascending order. If fn returns false, iteration stops early.
func (a *Atomic) ForEach(fn func(i int) bool) {
	for wi := range a.words {
		w := a.words[wi].Load()
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Members returns the indices of all set bits in a snapshot.
func (a *Atomic) Members() []int {
	out := make([]int, 0, 8)
	a.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Matrix is an n×m atomic bit matrix. It backs the classifier's tested()
// predicate over ordered concept pairs.
type Matrix struct {
	rows, cols int
	bits       *Atomic
}

// NewMatrix returns an all-clear rows×cols atomic bit matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitset: negative matrix dims %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, bits: NewAtomic(rows * cols)}
}

func (m *Matrix) idx(r, c int) int {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("bitset: matrix index (%d,%d) out of range %dx%d", r, c, m.rows, m.cols))
	}
	return r*m.cols + c
}

// Test reports whether bit (r,c) is set.
func (m *Matrix) Test(r, c int) bool { return m.bits.Test(m.idx(r, c)) }

// Set sets bit (r,c) and reports whether this call changed it.
func (m *Matrix) Set(r, c int) bool { return m.bits.Set(m.idx(r, c)) }

// TestAndSet atomically sets (r,c) and reports whether it was already set.
func (m *Matrix) TestAndSet(r, c int) bool { return m.bits.TestAndSet(m.idx(r, c)) }

// SetRow sets every column of row r that s holds and returns the columns
// that were clear before: the row-wise TestAndSet. The row need not be
// word-aligned; each touched word is updated with one atomic OR, so the
// returned bits are exact under concurrent writers. s must have one bit
// per column.
func (m *Matrix) SetRow(r int, s *Set) *Set {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("bitset: row %d out of range [0,%d)", r, m.rows))
	}
	if s.n != m.cols {
		panic(fmt.Sprintf("bitset: set size %d does not match %d cols", s.n, m.cols))
	}
	fresh := New(m.cols)
	for k, w := range s.words {
		if w == 0 {
			continue
		}
		p := r*m.cols + k*wordBits
		wi, sh := p/wordBits, uint(p%wordBits)
		lo := w << sh
		fresh.words[k] = (lo &^ orOld(&m.bits.words[wi], lo)) >> sh
		// A shift by 64 yields 0, so an aligned row never spills.
		if hi := w >> (wordBits - sh); hi != 0 {
			fresh.words[k] |= (hi &^ orOld(&m.bits.words[wi+1], hi)) << (wordBits - sh)
		}
	}
	return fresh
}

// Count returns the number of set bits in a snapshot.
func (m *Matrix) Count() int { return m.bits.Count() }
