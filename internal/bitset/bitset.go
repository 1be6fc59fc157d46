// Package bitset provides fixed-size bit sets in two flavours: a plain
// single-goroutine Set and a lock-free Atomic set whose individual bit
// operations are safe for concurrent use.
//
// The Atomic variant backs the shared P (possible subsumees) and K (known
// subsumees) structures of the parallel classifier, where the paper
// requires "atomic global data structures" so that worker threads can
// update shared state without races (Quan & Haarslev, ICPP 2017, Sec. IV).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// wordsFor returns the number of 64-bit words needed for n bits.
func wordsFor(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	return (n + wordBits - 1) / wordBits
}

// Set is a fixed-capacity bit set. It is not safe for concurrent use; use
// Atomic for shared state.
type Set struct {
	n     int
	words []uint64
}

// New returns a Set able to hold bits 0..n-1, all initially clear.
func New(n int) *Set {
	return &Set{n: n, words: make([]uint64, wordsFor(n))}
}

// FromWords returns a Set of capacity n that takes ownership of words as
// its backing store: bit i is bit i%64 of words[i/64]. len(words) must be
// wordsFor(n); bits at and beyond n are cleared.
func FromWords(n int, words []uint64) *Set {
	if len(words) != wordsFor(n) {
		panic(fmt.Sprintf("bitset: %d words for %d bits, want %d", len(words), n, wordsFor(n)))
	}
	s := &Set{n: n, words: words}
	s.trimTail()
	return s
}

// Rows cuts count Sets of capacity n from words, which it takes ownership
// of like FromWords: row r holds words [r·w, (r+1)·w) with w = ⌈n/64⌉,
// so a square bit matrix costs one allocation for its words and one for
// its row headers, and bit c of row r stays readable as bit c%64 of
// words[r·w + c/64]. Each row's words are capped with a three-index
// slice, so no operation on one row reaches the next. len(words) must be
// count·w; bits at and beyond n are cleared.
func Rows(words []uint64, count, n int) []Set {
	w := wordsFor(n)
	if len(words) != count*w {
		panic(fmt.Sprintf("bitset: %d words for %d rows of %d bits, want %d", len(words), count, n, count*w))
	}
	rows := make([]Set, count)
	for r := range rows {
		rows[r] = Set{n: n, words: words[r*w : (r+1)*w : (r+1)*w]}
		rows[r].trimTail()
	}
	return rows
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// indexError is the panic value of a bit operation given an index
// outside [0, n). Its message is formatted only when printed, which keeps
// Test, Set and Clear of both set types within the inliner's budget.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("bitset: index %d out of range [0,%d)", e.i, e.n)
}

func (s *Set) check(i int) {
	if uint(i) >= uint(s.n) {
		panic(indexError{i, s.n})
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether no bit is set.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// FillAll sets every bit in [0, Len).
func (s *Set) FillAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trimTail()
}

// ClearAll clears every bit.
func (s *Set) ClearAll() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trimTail zeroes the bits beyond n in the last word so Count stays exact.
func (s *Set) trimTail() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Union sets s to s ∪ o. Both sets must have the same capacity.
func (s *Set) Union(o *Set) {
	s.sameLen(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Intersect sets s to s ∩ o. Both sets must have the same capacity.
func (s *Set) Intersect(o *Set) {
	s.sameLen(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// Subtract sets s to s \ o. Both sets must have the same capacity.
func (s *Set) Subtract(o *Set) {
	s.sameLen(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Equal reports whether s and o hold exactly the same bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range o.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

func (s *Set) sameLen(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: size mismatch %d vs %d", s.n, o.n))
	}
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// NextAndNot returns the smallest member ≥ i of s that is not in o, or
// -1 when there is none, scanning s \ o a word at a time without
// building it. Unlike ForEach it lets a caller suspend a scan and resume
// it later. Both sets must have the same capacity.
func (s *Set) NextAndNot(o *Set, i int) int {
	s.sameLen(o)
	if i < 0 {
		i = 0
	}
	wi := i / wordBits
	if wi >= len(s.words) {
		return -1
	}
	if w := (s.words[wi] &^ o.words[wi]) >> (uint(i) % wordBits); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if w := s.words[wi] &^ o.words[wi]; w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Members returns the indices of all set bits in ascending order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set as {i, j, ...} for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
