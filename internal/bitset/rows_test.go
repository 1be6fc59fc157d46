package bitset

import (
	"math/rand"
	"sync"
	"testing"
)

func TestAlignCols(t *testing.T) {
	cases := map[int]int{0: 0, 1: 64, 63: 64, 64: 64, 65: 128, 1000: 1024}
	for n, want := range cases {
		if got := AlignCols(n); got != want {
			t.Errorf("AlignCols(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRowOpsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(10)
		cols := AlignCols(1 + rng.Intn(200))
		m := NewMatrix(rows, cols)
		ref := make([]map[int]bool, rows)
		for r := range ref {
			ref[r] = map[int]bool{}
		}
		for i := 0; i < rows*8; i++ {
			r, c := rng.Intn(rows), rng.Intn(cols)
			m.Set(r, c)
			ref[r][c] = true
		}
		// A few row ORs, mirrored on the reference.
		for i := 0; i < 5; i++ {
			dst, src := rng.Intn(rows), rng.Intn(rows)
			m.OrRow(dst, src)
			for c := range ref[src] {
				ref[dst][c] = true
			}
		}
		for r := 0; r < rows; r++ {
			if got, want := m.RowCount(r), len(ref[r]); got != want {
				t.Fatalf("trial %d: RowCount(%d) = %d, want %d", trial, r, got, want)
			}
			snap := m.RowSnapshot(r)
			if snap.Len() != cols {
				t.Fatalf("RowSnapshot len %d, want %d", snap.Len(), cols)
			}
			seen := map[int]bool{}
			m.RowForEach(r, func(c int) bool {
				seen[c] = true
				if !snap.Test(c) {
					t.Fatalf("RowForEach yielded %d but snapshot misses it", c)
				}
				return true
			})
			for c := range ref[r] {
				if !seen[c] {
					t.Fatalf("trial %d: row %d missing col %d", trial, r, c)
				}
			}
			if len(seen) != len(ref[r]) {
				t.Fatalf("trial %d: row %d has %d cols, want %d", trial, r, len(seen), len(ref[r]))
			}
			// Intersection against a random probe set.
			probe := New(cols)
			want := false
			for i := 0; i < 20; i++ {
				c := rng.Intn(cols)
				probe.Set(c)
				want = want || ref[r][c]
			}
			if got := m.RowIntersectsSet(r, probe); got != want {
				t.Fatalf("RowIntersectsSet = %v, want %v", got, want)
			}
		}
	}
}

func TestRowForEachEarlyStop(t *testing.T) {
	m := NewMatrix(1, 128)
	for _, c := range []int{3, 70, 100} {
		m.Set(0, c)
	}
	var got []int
	m.RowForEach(0, func(c int) bool {
		got = append(got, c)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 3 || got[1] != 70 {
		t.Fatalf("early stop yielded %v", got)
	}
}

func TestRowOpsRequireAlignment(t *testing.T) {
	m := NewMatrix(2, 10) // 10 cols: rows are not word-aligned
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for row op on unaligned matrix")
		}
	}()
	m.OrRow(0, 1)
}

// TestOrRowConcurrent exercises concurrent OR-ing into the same
// destination row under -race: the closure build ORs parent rows from
// several goroutines.
func TestOrRowConcurrent(t *testing.T) {
	const rows, cols = 17, 256
	m := NewMatrix(rows, cols)
	for r := 1; r < rows; r++ {
		m.Set(r, (r*37)%cols)
	}
	var wg sync.WaitGroup
	for r := 1; r < rows; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m.OrRow(0, r)
		}(r)
	}
	wg.Wait()
	if got := m.RowCount(0); got != rows-1 {
		t.Fatalf("row 0 has %d bits, want %d", got, rows-1)
	}
	for r := 1; r < rows; r++ {
		if !m.Test(0, (r*37)%cols) {
			t.Fatalf("bit from row %d missing", r)
		}
	}
}
