package bitset

import "fmt"

// OrTranspose ORs the transpose of the bit matrix whose rows are rows
// into dst: every bit c of rows[r] sets bit r of dst[c]. A nil row is
// empty. Each row must have capacity len(dst), and each dst set capacity
// at least len(rows).
//
// It moves 64×64 blocks: the bands of 64 rows are read one word column at
// a time, transposed in registers, and each nonzero transposed word lands
// in dst with one atomic OR, so the cost is per word, not per bit.
func OrTranspose(dst []*Atomic, rows []*Set) {
	for _, row := range rows {
		if row != nil && row.n != len(dst) {
			panic(fmt.Sprintf("bitset: row size %d does not match %d destination sets", row.n, len(dst)))
		}
	}
	for _, d := range dst {
		if d.n < len(rows) {
			panic(fmt.Sprintf("bitset: destination size %d below %d rows", d.n, len(rows)))
		}
	}
	var blk [wordBits]uint64
	for r0 := 0; r0 < len(rows); r0 += wordBits {
		band := rows[r0:min(r0+wordBits, len(rows))]
		for w := 0; w < wordsFor(len(dst)); w++ {
			var nonzero uint64
			for k := range blk {
				blk[k] = 0
				if k < len(band) && band[k] != nil {
					blk[k] = band[k].words[w]
				}
				nonzero |= blk[k]
			}
			if nonzero == 0 {
				continue
			}
			transpose64(&blk)
			for j, t := range blk {
				if t != 0 {
					dst[w*wordBits+j].words[r0/wordBits].Or(t)
				}
			}
		}
	}
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
