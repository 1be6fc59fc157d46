package bitset

import (
	"fmt"
	"math/bits"
)

// OrTranspose ORs the transpose of the bit matrix whose rows are rows
// into dst: every bit c of rows[r] sets bit r of dst[c]. A nil row is
// empty. Each row must have capacity len(dst), and each dst set capacity
// at least len(rows).
//
// It moves 64×64 blocks (transposeTiles), and each nonzero transposed
// word lands in dst with one atomic OR, so the cost is per word, not per
// bit.
func OrTranspose(dst []*Atomic, rows []*Set) {
	for _, d := range dst {
		if d.n < len(rows) {
			panic(fmt.Sprintf("bitset: destination size %d below %d rows", d.n, len(rows)))
		}
	}
	transposeTiles(rows, len(dst), func(c0, band int, blk *[wordBits]uint64) {
		for j, t := range blk {
			if t != 0 {
				dst[c0+j].words[band].Or(t)
			}
		}
	})
}

// Transpose returns the transpose of the bit matrix whose rows are rows
// as cols plain sets of capacity len(rows), cut from one backing array
// (Rows): bit c of rows[r] is bit r of set c. A nil row is empty; each
// other row must have capacity cols. It is OrTranspose's tile loop
// storing into fresh sets, so each transposed word is written once.
func Transpose(rows []*Set, cols int) []*Set {
	sets := Rows(make([]uint64, cols*wordsFor(len(rows))), cols, len(rows))
	out := make([]*Set, cols)
	for c := range out {
		out[c] = &sets[c]
	}
	transposeTiles(rows, cols, func(c0, band int, blk *[wordBits]uint64) {
		for j, t := range blk {
			if t != 0 {
				out[c0+j].words[band] = t
			}
		}
	})
	return out
}

// transposeTiles walks the bit matrix rows, of cols columns, in 64×64
// tiles: the bands of 64 rows are read one word column at a time, and
// each tile with a bit set is transposed in registers and handed to put.
// There blk[j] holds, for column c0+j, the bits of the band's rows
// 64·band … 64·band+63, so it is word band of the transposed row c0+j;
// a column past cols gets no bit.
func transposeTiles(rows []*Set, cols int, put func(c0, band int, blk *[wordBits]uint64)) {
	for _, row := range rows {
		if row != nil && row.n != cols {
			panic(fmt.Sprintf("bitset: row size %d does not match %d columns", row.n, cols))
		}
	}
	var blk [wordBits]uint64
	for r0 := 0; r0 < len(rows); r0 += wordBits {
		for w := 0; w < wordsFor(cols); w++ {
			if loadTile(&blk, rows, r0, w) == 0 {
				continue
			}
			transpose64(&blk)
			put(w*wordBits, r0/wordBits, &blk)
		}
	}
}

// MutualPairs calls fn(i, j) for every pair i < j of the square bit
// matrix rows with j ∈ rows[i] and i ∈ rows[j]. A nil row is empty; each
// other row must have capacity len(rows).
//
// It works on 64×64 tiles: for each pair of 64-row bands a ≤ b it
// transposes tile (b, a) in registers and ANDs it with tile (a, b), so
// the set bits are exactly the mutual pairs between the two bands and
// the cost is per tile, not per bit. No transposed copy of the matrix is
// made. Pairs come band pair by band pair, not in global order.
func MutualPairs(rows []*Set, fn func(i, j int)) {
	n := len(rows)
	for _, row := range rows {
		if row != nil && row.n != n {
			panic(fmt.Sprintf("bitset: row size %d in a %d-row square matrix", row.n, n))
		}
	}
	var ab, ba [wordBits]uint64
	for a := 0; a < wordsFor(n); a++ {
		for b := a; b < wordsFor(n); b++ {
			if loadTile(&ab, rows, a*wordBits, b) == 0 || loadTile(&ba, rows, b*wordBits, a) == 0 {
				continue
			}
			transpose64(&ba) // bit j of ba[i]: a*64+i ∈ rows[b*64+j]
			for i := range ab {
				m := ab[i] & ba[i]
				if a == b {
					m &= ^uint64(0) << uint(i+1) // the diagonal tile: j > i only
				}
				for ; m != 0; m &= m - 1 {
					fn(a*wordBits+i, b*wordBits+bits.TrailingZeros64(m))
				}
			}
		}
	}
}

// loadTile fills blk with word w of rows r0..r0+63, zero for rows past
// the end or nil, and returns the OR of the loaded words.
func loadTile(blk *[wordBits]uint64, rows []*Set, r0, w int) uint64 {
	var nonzero uint64
	for k := range blk {
		blk[k] = 0
		if r := r0 + k; r < len(rows) && rows[r] != nil {
			blk[k] = rows[r].words[w]
		}
		nonzero |= blk[k]
	}
	return nonzero
}

// transpose64 transposes the 64×64 bit matrix a in place: bit j of a[i]
// becomes bit i of a[j]. It swaps the off-diagonal blocks of halving size
// (32, 16, ..., 1), six passes of 32 word pairs each.
func transpose64(a *[wordBits]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < wordBits; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
}
