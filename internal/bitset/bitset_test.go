package bitset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetBasic(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if !s.IsEmpty() || s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		s.Set(i)
		if !s.Test(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Error("bit 64 still set after Clear")
	}
	if s.Count() != 6 {
		t.Fatalf("Count = %d, want 6", s.Count())
	}
}

func TestSetFillClearAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		s := New(n)
		s.FillAll()
		if s.Count() != n {
			t.Errorf("n=%d: FillAll Count = %d", n, s.Count())
		}
		s.ClearAll()
		if !s.IsEmpty() {
			t.Errorf("n=%d: not empty after ClearAll", n)
		}
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	s, a := New(10), NewAtomic(10)
	ops := map[string]func(i int){
		"Set.Test":     func(i int) { s.Test(i) },
		"Set.Set":      func(i int) { s.Set(i) },
		"Set.Clear":    func(i int) { s.Clear(i) },
		"Atomic.Test":  func(i int) { a.Test(i) },
		"Atomic.Set":   func(i int) { a.Set(i) },
		"Atomic.Clear": func(i int) { a.Clear(i) },
	}
	for name, op := range ops {
		for _, i := range []int{-1, 10, 1000} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s: no panic for index %d", name, i)
						return
					}
					if got, want := fmt.Sprint(r), fmt.Sprintf("bitset: index %d out of range [0,10)", i); got != want {
						t.Errorf("%s: panic %q, want %q", name, got, want)
					}
				}()
				op(i)
			}()
		}
	}
}

func TestSetUnionIntersectSubtract(t *testing.T) {
	a, b := New(100), New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	u, in, d := New(100), New(100), New(100)
	u.Union(a)
	u.Union(b)
	in.Union(a)
	in.Intersect(b)
	d.Union(a)
	d.Subtract(b)
	for i := 0; i < 100; i++ {
		ia, ib := i%2 == 0, i%3 == 0
		if u.Test(i) != (ia || ib) {
			t.Errorf("union bit %d wrong", i)
		}
		if in.Test(i) != (ia && ib) {
			t.Errorf("intersect bit %d wrong", i)
		}
		if d.Test(i) != (ia && !ib) {
			t.Errorf("subtract bit %d wrong", i)
		}
	}
}

func TestSetMembersOrdered(t *testing.T) {
	s := New(300)
	want := []int{3, 64, 65, 127, 128, 299}
	for _, i := range want {
		s.Set(i)
	}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

// TestNextAndNotMatchesPerBit checks NextAndNot against a per-bit scan
// of s \ o from every start, on sets of sizes that end inside, at and
// just past 64-bit words: empty and full ones, members at word edges
// with o empty, and random ones.
func TestNextAndNotMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 64, 65, 130, 257, 300} {
		for trial := 0; trial < 20; trial++ {
			s, o := New(n), New(n)
			switch trial {
			case 0:
			case 1:
				s.FillAll()
			case 2:
				s.FillAll()
				o.FillAll()
			case 3:
				for _, i := range []int{3, 63, 64, 65, 127, 128, 299} {
					if i < n {
						s.Set(i)
					}
				}
			default:
				ds, do := 1+rng.Intn(8), 1+rng.Intn(8)
				for i := 0; i < n; i++ {
					if rng.Intn(ds) == 0 {
						s.Set(i)
					}
					if rng.Intn(do) == 0 {
						o.Set(i)
					}
				}
			}
			for start := -1; start <= n+1; start++ {
				want := -1
				for i := max(start, 0); i < n; i++ {
					if s.Test(i) && !o.Test(i) {
						want = i
						break
					}
				}
				if got := s.NextAndNot(o, start); got != want {
					t.Fatalf("n=%d trial %d: NextAndNot(%d) = %d, want %d (s %v, o %v)", n, trial, start, got, want, s, o)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NextAndNot on sets of different sizes did not panic")
		}
	}()
	New(64).NextAndNot(New(65), 0)
}

func TestSetString(t *testing.T) {
	s := New(10)
	s.Set(1)
	s.Set(7)
	if got := s.String(); got != "{1, 7}" {
		t.Errorf("String = %q", got)
	}
}

// TestSetQuickAgainstMap property-checks Set against a map-based model.
func TestSetQuickAgainstMap(t *testing.T) {
	const n = 257
	f := func(ops []uint16) bool {
		s := New(n)
		model := map[int]bool{}
		for _, op := range ops {
			i := int(op) % n
			switch (int(op) / n) % 3 {
			case 0:
				s.Set(i)
				model[i] = true
			case 1:
				s.Clear(i)
				delete(model, i)
			case 2:
				if s.Test(i) != model[i] {
					return false
				}
			}
		}
		if s.Count() != len(model) {
			return false
		}
		for _, m := range s.Members() {
			if !model[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicBasic(t *testing.T) {
	a := NewAtomic(129)
	if !a.Set(5) {
		t.Error("Set(5) reported no change on clear bit")
	}
	if a.Set(5) {
		t.Error("Set(5) reported change on set bit")
	}
	if !a.Test(5) {
		t.Error("Test(5) false")
	}
	if a.Test(6) {
		t.Error("Test(6) true on a clear bit")
	}
	if !a.Clear(5) {
		t.Error("Clear(5) reported bit was clear")
	}
	if a.Clear(5) {
		t.Error("Clear(5) twice reported bit was set")
	}
}

func TestAtomicFillSnapshot(t *testing.T) {
	a := NewAtomic(100)
	a.FillAll()
	if a.Count() != 100 {
		t.Fatalf("Count after FillAll = %d", a.Count())
	}
	snap := a.Snapshot()
	if snap.Count() != 100 {
		t.Fatalf("Snapshot Count = %d", snap.Count())
	}
	a.ClearAll()
	if !a.IsEmpty() {
		t.Fatal("not empty after ClearAll")
	}
	if snap.Count() != 100 {
		t.Fatal("snapshot aliased to atomic set")
	}
}

// TestAtomicConcurrentSetters hammers one set from many goroutines and
// checks every claimed bit was claimed exactly once.
func TestAtomicConcurrentSetters(t *testing.T) {
	const n = 4096
	const workers = 8
	a := NewAtomic(n)
	claims := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < n; k++ {
				i := rng.Intn(n)
				if a.Set(i) {
					claims[w] = append(claims[w], i)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[int]int{}
	for _, c := range claims {
		for _, i := range c {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("bit %d claimed %d times", i, c)
		}
	}
	if a.Count() != len(seen) {
		t.Fatalf("Count = %d, claimed = %d", a.Count(), len(seen))
	}
}

// TestAtomicConcurrentClearDisjoint has workers clear disjoint ranges
// concurrently; the final set must be exactly empty.
func TestAtomicConcurrentClearDisjoint(t *testing.T) {
	const n = 1 << 12
	a := NewAtomic(n)
	a.FillAll()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if !a.Clear(i) {
					t.Errorf("bit %d already clear", i)
				}
			}
		}(w)
	}
	wg.Wait()
	if !a.IsEmpty() {
		t.Fatalf("set not empty, %d bits left", a.Count())
	}
}

func BenchmarkAtomicSet(b *testing.B) {
	a := NewAtomic(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Set(i & (1<<16 - 1))
	}
}

func BenchmarkAtomicSnapshotCount(b *testing.B) {
	a := NewAtomic(1 << 16)
	for i := 0; i < 1<<16; i += 3 {
		a.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Count()
	}
}
