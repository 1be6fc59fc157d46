package bitset

import (
	"fmt"
	"math/bits"
)

// Row-oriented operations over Matrix, used by the taxonomy query kernel
// to treat each matrix row as a dense set and combine rows with
// word-parallel OR/AND instead of per-bit loops. They require the matrix
// to be allocated with a word-aligned column count (AlignCols) so every
// row starts and ends on a 64-bit word boundary; the padding columns are
// simply never set.

// AlignCols rounds n up to the next multiple of the word size so that an
// n-column matrix row occupies whole words. AlignCols(0) == 0.
func AlignCols(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative column count %d", n))
	}
	return wordsFor(n) * wordBits
}

// rowWords returns the word span [lo, lo+n) of row r, panicking unless
// the matrix is word-aligned (cols % 64 == 0) and r is in range.
func (m *Matrix) rowWords(r int) (lo, n int) {
	if m.cols%wordBits != 0 {
		panic(fmt.Sprintf("bitset: row operation on unaligned matrix (%d cols); allocate with AlignCols", m.cols))
	}
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("bitset: row %d out of range [0,%d)", r, m.rows))
	}
	n = m.cols / wordBits
	return r * n, n
}

// OrRow ORs row src into row dst in word-parallel fashion: every bit set
// in src becomes set in dst. Each word is updated with one atomic OR, so
// concurrent OrRow calls into the same dst row are safe; readers see each
// word at a possibly different instant, which is fine for the kernel's
// monotone closure build (rows only gain bits).
func (m *Matrix) OrRow(dst, src int) {
	dlo, n := m.rowWords(dst)
	slo, _ := m.rowWords(src)
	for i := 0; i < n; i++ {
		if w := m.bits.words[slo+i].Load(); w != 0 {
			m.bits.words[dlo+i].Or(w)
		}
	}
}

// RowCount returns the popcount of row r.
func (m *Matrix) RowCount(r int) int {
	lo, n := m.rowWords(r)
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(m.bits.words[lo+i].Load())
	}
	return c
}

// RowForEach calls fn for every set column of row r in ascending order.
// If fn returns false, iteration stops early.
func (m *Matrix) RowForEach(r int, fn func(c int) bool) {
	lo, n := m.rowWords(r)
	for i := 0; i < n; i++ {
		w := m.bits.words[lo+i].Load()
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// RowSnapshot copies row r into a fresh Set with one bit per column.
func (m *Matrix) RowSnapshot(r int) *Set {
	lo, n := m.rowWords(r)
	s := New(m.cols)
	for i := 0; i < n; i++ {
		s.words[i] = m.bits.words[lo+i].Load()
	}
	return s
}

// RowIntersectsSet reports whether row r and s share at least one set
// bit. s must have one bit per column.
func (m *Matrix) RowIntersectsSet(r int, s *Set) bool {
	lo, n := m.rowWords(r)
	if s.n != m.cols {
		panic(fmt.Sprintf("bitset: set size %d does not match %d cols", s.n, m.cols))
	}
	for i := 0; i < n; i++ {
		if m.bits.words[lo+i].Load()&s.words[i] != 0 {
			return true
		}
	}
	return false
}
