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
	if uint(i) >= uint(a.n) {
		panic(indexError{i, a.n})
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
