package bitset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

func TestMatrixBinaryRoundTrip(t *testing.T) {
	m := NewMatrix(5, 7)
	m.Set(0, 0)
	m.Set(4, 6)
	m.Set(2, 3)
	data := m.AppendBinary(nil)
	got, rest, err := ReadMatrix(data)
	if err != nil {
		t.Fatalf("ReadMatrix: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("ReadMatrix left %d bytes", len(rest))
	}
	if got.Count() != 3 || !got.Test(0, 0) || !got.Test(4, 6) || !got.Test(2, 3) || got.Test(1, 1) {
		t.Fatalf("matrix round trip mismatch")
	}
}

// TestBinaryStreaming reads frames back to back from one buffer, the way
// a checkpoint lays out its P rows, K rows and tested matrix: each frame
// is appended after others, so its checksum covers only its own bytes.
func TestBinaryStreaming(t *testing.T) {
	a := NewAtomic(10)
	a.Set(2)
	b := NewAtomic(100)
	b.Set(99)
	m := NewMatrix(3, 70)
	m.Set(2, 69)
	data := m.AppendBinary(b.AppendBinary(a.AppendBinary(nil)))

	gotA, rest, err := ReadAtomic(data)
	if err != nil {
		t.Fatalf("ReadAtomic #1: %v", err)
	}
	gotB, rest, err := ReadAtomic(rest)
	if err != nil {
		t.Fatalf("ReadAtomic #2: %v", err)
	}
	gotM, rest, err := ReadMatrix(rest)
	if err != nil {
		t.Fatalf("ReadMatrix: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("stream left %d bytes", len(rest))
	}
	if !gotA.Snapshot().Equal(a.Snapshot()) || !gotB.Snapshot().Equal(b.Snapshot()) ||
		gotM.Count() != 1 || !gotM.Test(2, 69) {
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
	// The same frame behind a valid 5×13 matrix header.
	hdr := binary.LittleEndian.AppendUint32(nil, 5)
	hdr = binary.LittleEndian.AppendUint32(hdr, 13)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, _, err := ReadMatrix(append(hdr, forged...)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("matrix tail bits: err = %v, want ErrCorrupt", err)
	}
}

// TestBinaryTrailingBytesRejected: the decoders hand bytes after a frame
// back to the caller instead of swallowing them, and a stray byte is not
// a frame.
func TestBinaryTrailingBytesRejected(t *testing.T) {
	_, rest, err := ReadAtomic(append(NewAtomic(8).AppendBinary(nil), 0xFF))
	if err != nil || !bytes.Equal(rest, []byte{0xFF}) {
		t.Fatalf("atomic: rest = %x, err = %v; want ff, nil", rest, err)
	}
	if _, _, err := ReadAtomic(rest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("atomic: trailing byte read as a frame: err = %v, want ErrCorrupt", err)
	}
	_, rest, err = ReadMatrix(append(NewMatrix(2, 4).AppendBinary(nil), 0xFF))
	if err != nil || !bytes.Equal(rest, []byte{0xFF}) {
		t.Fatalf("matrix: rest = %x, err = %v; want ff, nil", rest, err)
	}
	if _, _, err := ReadMatrix(rest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("matrix: trailing byte read as a frame: err = %v, want ErrCorrupt", err)
	}
}

func TestMatrixBinaryCorruptionRejected(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(1, 1)
	good := m.AppendBinary(nil)

	bad := append([]byte(nil), good...)
	bad[0] ^= 1 // rows no longer match the header checksum
	if _, _, err := ReadMatrix(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("matrix header flip: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := ReadMatrix(good[:8]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("matrix truncated: err = %v, want ErrCorrupt", err)
	}
	bad = append([]byte(nil), good...)
	bad[12+4] ^= 1 // a payload bit no longer matches the bits' checksum
	if _, _, err := ReadMatrix(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("matrix payload flip: err = %v, want ErrCorrupt", err)
	}
	// Dimensions that still multiply to the bit count (2×6 read as 3×4):
	// only the header checksum can refuse them.
	swapped := NewMatrix(2, 6).AppendBinary(nil)
	binary.LittleEndian.PutUint32(swapped, 3)
	binary.LittleEndian.PutUint32(swapped[4:], 4)
	if _, _, err := ReadMatrix(swapped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("matrix dims rewritten: err = %v, want ErrCorrupt", err)
	}
	// A resealed header whose dimensions disagree with the bit count.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad, 4)
	binary.LittleEndian.PutUint32(bad[8:], crc32.ChecksumIEEE(bad[:8]))
	if _, _, err := ReadMatrix(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("matrix dims mismatch: err = %v, want ErrCorrupt", err)
	}
}
