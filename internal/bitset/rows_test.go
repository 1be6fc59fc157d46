package bitset

import (
	"math/rand"
	"testing"
)

// TestRowOpsMatchNaive checks the rows Rows carves against one map per
// row: bits set, rows ORed and ANDed into one another, Count, Test and
// ForEach, and each bit read back from the shared words at r·w + c/64.
// Capacities straddle word boundaries, so most rows span several words
// and end inside one, and no operation may reach a neighbouring row's
// words.
func TestRowOpsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		count, n := 1+rng.Intn(10), 1+rng.Intn(200)
		w := wordsFor(n)
		words := make([]uint64, count*w)
		rows := Rows(words, count, n)
		ref := make([]map[int]bool, count)
		for r := range rows {
			if rows[r].Len() != n || !rows[r].IsEmpty() {
				t.Fatalf("trial %d: fresh row %d has capacity %d, %d bits", trial, r, rows[r].Len(), rows[r].Count())
			}
			ref[r] = map[int]bool{}
		}
		for i := 0; i < count*8; i++ {
			r, c := rng.Intn(count), rng.Intn(n)
			rows[r].Set(c)
			ref[r][c] = true
		}
		for r := range rows { // the last bit of every row, next to its neighbour's first
			rows[r].Set(n - 1)
			ref[r][n-1] = true
		}
		for i := 0; i < 5; i++ {
			dst, src := rng.Intn(count), rng.Intn(count)
			rows[dst].Union(&rows[src])
			for c := range ref[src] {
				ref[dst][c] = true
			}
			if rng.Intn(3) == 0 {
				dst, src := rng.Intn(count), rng.Intn(count)
				rows[dst].Intersect(&rows[src])
				for c := range ref[dst] {
					if !ref[src][c] {
						delete(ref[dst], c)
					}
				}
			}
		}
		for r := range rows {
			if got, want := rows[r].Count(), len(ref[r]); got != want {
				t.Fatalf("trial %d: row %d Count = %d, want %d", trial, r, got, want)
			}
			for c := 0; c < n; c++ {
				if rows[r].Test(c) != ref[r][c] {
					t.Fatalf("trial %d: row %d bit %d = %v, want %v", trial, r, c, rows[r].Test(c), ref[r][c])
				}
				if got := words[r*w+c/64]&(1<<(uint(c)%64)) != 0; got != ref[r][c] {
					t.Fatalf("trial %d: words hold row %d bit %d = %v, want %v", trial, r, c, got, ref[r][c])
				}
			}
			rows[r].ForEach(func(c int) bool {
				if !ref[r][c] {
					t.Fatalf("trial %d: row %d ForEach yielded %d", trial, r, c)
				}
				return true
			})
		}
	}
}

// TestRowForEachEarlyStop: a carved row's ForEach stops when fn returns
// false, and a full scan yields its own bits only, never the next row's.
func TestRowForEachEarlyStop(t *testing.T) {
	rows := Rows(make([]uint64, 4), 2, 128)
	for _, c := range []int{3, 70, 100} {
		rows[0].Set(c)
	}
	rows[1].Set(0)
	var got []int
	rows[0].ForEach(func(c int) bool {
		got = append(got, c)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 3 || got[1] != 70 {
		t.Fatalf("early stop yielded %v", got)
	}
	if m := rows[0].Members(); len(m) != 3 || m[2] != 100 {
		t.Fatalf("row 0 members %v, want [3 70 100]", m)
	}
}
