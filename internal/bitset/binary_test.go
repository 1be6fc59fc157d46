package bitset

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// roundTripSet writes s's bits into an Atomic, encodes it as the frame a
// checkpoint stores (Atomic.AppendBinary), decodes it back with
// ReadAtomic and fails the test on any mismatch or leftover byte.
func roundTripSet(t *testing.T, s *Set) *Set {
	t.Helper()
	a := NewAtomic(s.Len())
	s.ForEach(func(i int) bool {
		a.Set(i)
		return true
	})
	dec, rest, err := ReadAtomic(a.AppendBinary(nil))
	if err != nil {
		t.Fatalf("ReadAtomic: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("ReadAtomic left %d bytes", len(rest))
	}
	got := dec.Snapshot()
	if got.Len() != s.Len() || !got.Equal(s) {
		t.Fatalf("round trip mismatch: got %v (len %d), want %v (len %d)",
			got, got.Len(), s, s.Len())
	}
	return got
}

func TestSetBinaryRoundTrip(t *testing.T) {
	// Capacities straddling word boundaries, including zero.
	for _, n := range []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 1000} {
		s := New(n)
		roundTripSet(t, s) // empty

		if n > 0 {
			s.Set(0)
			s.Set(n - 1)
			if n > 2 {
				s.Set(n / 2)
			}
			roundTripSet(t, s)

			s.FillAll()
			roundTripSet(t, s)
		}
	}
}

func TestSetBinaryTrailingZeroWords(t *testing.T) {
	// Only low bits set: the upper words are all zero and must survive.
	s := New(256)
	s.Set(3)
	s.Set(40)
	got := roundTripSet(t, s)
	if got.Count() != 2 {
		t.Fatalf("Count = %d, want 2", got.Count())
	}
}

func TestSetBinaryRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		n := rng.Intn(300)
		s := New(n)
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				s.Set(j)
			}
		}
		roundTripSet(t, s)
	}
}

func TestAtomicBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		a := NewAtomic(n)
		for i := 0; i < n; i += 3 {
			a.Set(i)
		}
		got, rest, err := ReadAtomic(a.AppendBinary(nil))
		if err != nil {
			t.Fatalf("n=%d: ReadAtomic: %v", n, err)
		}
		if len(rest) != 0 || got.Len() != n || !got.Snapshot().Equal(a.Snapshot()) {
			t.Fatalf("n=%d: round trip mismatch: got %v (%d bytes left), want %v",
				n, got.Snapshot(), len(rest), a.Snapshot())
		}
	}
}

// TestBinaryStreaming reads frames back to back from one buffer, the way
// a checkpoint lays out its P and K rows: each frame is appended after
// others, so its checksum covers only its own bytes.
func TestBinaryStreaming(t *testing.T) {
	a := NewAtomic(10)
	a.Set(2)
	b := NewAtomic(100)
	b.Set(99)
	c := NewAtomic(70)
	c.Set(69)
	data := c.AppendBinary(b.AppendBinary(a.AppendBinary(nil)))

	gotA, rest, err := ReadAtomic(data)
	if err != nil {
		t.Fatalf("ReadAtomic #1: %v", err)
	}
	gotB, rest, err := ReadAtomic(rest)
	if err != nil {
		t.Fatalf("ReadAtomic #2: %v", err)
	}
	gotC, rest, err := ReadAtomic(rest)
	if err != nil {
		t.Fatalf("ReadAtomic #3: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("stream left %d bytes", len(rest))
	}
	if !gotA.Snapshot().Equal(a.Snapshot()) || !gotB.Snapshot().Equal(b.Snapshot()) ||
		!gotC.Snapshot().Equal(c.Snapshot()) {
		t.Fatalf("stream round trip mismatch")
	}
}

func TestBinaryCorruptionRejected(t *testing.T) {
	s := NewAtomic(70)
	s.Set(5)
	s.Set(69)
	good := s.AppendBinary(nil)

	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-5],
		"header":    good[:3],
		"last-byte": good[:len(good)-1],
	}
	// Flip one bit in each region: capacity, payload, checksum.
	for name, off := range map[string]int{"flip-n": 0, "flip-word": 6, "flip-crc": len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		cases[name] = bad
	}
	for name, data := range cases {
		if _, _, err := ReadAtomic(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestBinaryTailBitsRejected(t *testing.T) {
	// Hand-craft a frame claiming 65 bits whose second word has bit 1
	// (overall bit 65) set: structurally valid, checksum valid, but the
	// payload exceeds the declared capacity.
	forged := appendFrame(nil, 65, func(i int) uint64 { return []uint64{0, 2}[i] })
	if _, _, err := ReadAtomic(forged); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tail bits: err = %v, want ErrCorrupt", err)
	}
}

// TestBinaryTrailingBytesRejected: the decoder hands bytes after a frame
// back to the caller instead of swallowing them, and a stray byte is not
// a frame.
func TestBinaryTrailingBytesRejected(t *testing.T) {
	_, rest, err := ReadAtomic(append(NewAtomic(8).AppendBinary(nil), 0xFF))
	if err != nil || !bytes.Equal(rest, []byte{0xFF}) {
		t.Fatalf("rest = %x, err = %v; want ff, nil", rest, err)
	}
	if _, _, err := ReadAtomic(rest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte read as a frame: err = %v, want ErrCorrupt", err)
	}
}
