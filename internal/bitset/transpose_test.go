package bitset

import (
	"math/rand"
	"testing"
)

// TestOrTransposeMatchesPerBit checks the blocked transpose against a
// per-bit transpose on random square matrices, including sizes that end
// inside, exactly at and just past a 64-bit block, with some rows nil.
func TestOrTransposeMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 130, 2263} {
		rows := make([]*Set, n)
		for r := range rows {
			if rng.Intn(8) == 0 {
				continue
			}
			rows[r] = New(n)
			for k := rng.Intn(n/4 + 2); k > 0; k-- {
				rows[r].Set(rng.Intn(n))
			}
		}
		got := make([]*Atomic, n)
		want := make([]*Set, n)
		for c := range got {
			got[c], want[c] = NewAtomic(n), New(n)
			if rng.Intn(4) == 0 {
				// Bits already present must survive the OR.
				b := rng.Intn(n)
				got[c].Set(b)
				want[c].Set(b)
			}
		}
		for r, row := range rows {
			if row != nil {
				row.ForEach(func(c int) bool { want[c].Set(r); return true })
			}
		}
		OrTranspose(got, rows)
		for c := range got {
			if g := got[c].Snapshot(); !g.Equal(want[c]) {
				t.Fatalf("n=%d: column %d = %v, want %v", n, c, g, want[c])
			}
		}
	}
}

// TestTransposeMatchesPerBit checks the plain transpose against a
// per-bit one on random matrices whose row and column counts end inside,
// at and just past a 64-bit block, square and not, with some rows nil:
// every column set holds exactly its rows, and writing one column set
// leaves its neighbours in the shared backing array alone.
func TestTransposeMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{1, 63, 64, 65, 130, 257}
	for _, nr := range sizes {
		for _, nc := range sizes {
			rows := make([]*Set, nr)
			want := make([]*Set, nc)
			for c := range want {
				want[c] = New(nr)
			}
			for r := range rows {
				if rng.Intn(8) == 0 {
					continue
				}
				rows[r] = New(nc)
				for k := rng.Intn(nc/4 + 2); k > 0; k-- {
					c := rng.Intn(nc)
					rows[r].Set(c)
					want[c].Set(r)
				}
			}
			got := Transpose(rows, nc)
			if len(got) != nc {
				t.Fatalf("rows=%d cols=%d: %d column sets", nr, nc, len(got))
			}
			for c := range got {
				if got[c].Len() != nr || !got[c].Equal(want[c]) {
					t.Fatalf("rows=%d cols=%d: column %d = %v, want %v", nr, nc, c, got[c], want[c])
				}
			}
			got[0].FillAll()
			if nc > 1 && !got[1].Equal(want[1]) {
				t.Fatalf("rows=%d cols=%d: filling column 0 changed column 1", nr, nc)
			}
		}
	}
}

// TestMutualPairsMatchesPerBit checks the tile-pair scan against per-bit
// probes of both directions on random square matrices of sizes that end
// inside, at and just past a 64-bit tile, with some rows nil: every
// mutual pair i < j is reported exactly once and nothing else is.
func TestMutualPairsMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 65, 130, 257} {
		for trial := 0; trial < 10; trial++ {
			rows := make([]*Set, n)
			density := 1 + rng.Intn(6)
			for r := range rows {
				if rng.Intn(8) == 0 {
					continue
				}
				rows[r] = New(n)
				for c := 0; c < n; c++ {
					if rng.Intn(density) == 0 {
						rows[r].Set(c)
					}
				}
			}
			has := func(r, c int) bool { return rows[r] != nil && rows[r].Test(c) }
			want := map[[2]int]bool{}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if has(i, j) && has(j, i) {
						want[[2]int{i, j}] = true
					}
				}
			}
			got := map[[2]int]bool{}
			MutualPairs(rows, func(i, j int) {
				if i >= j || got[[2]int{i, j}] {
					t.Fatalf("n=%d: pair (%d, %d) out of order or repeated", n, i, j)
				}
				got[[2]int{i, j}] = true
			})
			if len(got) != len(want) {
				t.Fatalf("n=%d trial %d: %d mutual pairs, want %d", n, trial, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("n=%d trial %d: pair %v missed", n, trial, p)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MutualPairs on a non-square matrix did not panic")
		}
	}()
	MutualPairs([]*Set{New(2)}, func(int, int) {})
}

// TestFillRangeMatchesPerBit checks the word-level range fill against
// per-bit sets, over every range of a few sizes around word boundaries.
func TestFillRangeMatchesPerBit(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				got, want := NewAtomic(n), New(n)
				got.FillRange(lo, hi)
				for i := lo; i < hi; i++ {
					want.Set(i)
				}
				if g := got.Snapshot(); !g.Equal(want) {
					t.Fatalf("n=%d FillRange(%d,%d) = %v, want %v", n, lo, hi, g, want)
				}
			}
		}
	}
}

// TestRowWiseOpsMatchPerBit checks ClearSet, which claims a row's bits
// with one atomic AND per word, against per-bit Clear.
func TestRowWiseOpsMatchPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cols := range []int{1, 7, 63, 64, 65, 130} {
		a, ref := NewAtomic(cols), New(cols)
		for i := 0; i < cols; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
				ref.Set(i)
			}
		}
		clr := New(cols)
		for i := 0; i < cols/2+1; i++ {
			clr.Set(rng.Intn(cols))
		}
		wantCleared := 0
		clr.ForEach(func(i int) bool {
			if ref.Test(i) {
				wantCleared++
				ref.Clear(i)
			}
			return true
		})
		if got := a.ClearSet(clr); got != wantCleared {
			t.Fatalf("cols=%d: ClearSet cleared %d, want %d", cols, got, wantCleared)
		}
		if g := a.Snapshot(); !g.Equal(ref) {
			t.Fatalf("cols=%d: after ClearSet %v, want %v", cols, g, ref)
		}
	}
}
