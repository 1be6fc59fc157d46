package bitset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Binary serialization for Atomic, used by the classifier's checkpoint
// snapshots. The encoding is stable across versions and platforms:
//
//	uint32 LE  n        bit capacity
//	uint64 LE  words    wordsFor(n) words, lowest bits first
//	uint32 LE  crc      CRC-32 (IEEE) of the n and word bytes above
//
// Every frame carries its own checksum so a truncated or bit-flipped
// snapshot is rejected instead of silently decoding into a wrong set.
// Decoding additionally rejects frames whose tail word carries bits
// beyond the declared capacity, which would break Count/IsEmpty
// invariants.

// ErrCorrupt reports binary data that failed structural validation or
// its checksum. All decode errors wrap it.
var ErrCorrupt = errors.New("bitset: corrupt binary data")

// binarySize returns the encoded frame size for an n-bit set.
func binarySize(n int) int { return 4 + wordsFor(n)*8 + 4 }

// appendFrame appends the standard frame for n bits whose i-th word is
// word(i).
func appendFrame(b []byte, n int, word func(i int) uint64) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for i, w := 0, wordsFor(n); i < w; i++ {
		b = binary.LittleEndian.AppendUint64(b, word(i))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// readFrame validates the frame at the head of data — its length, its
// checksum and that no bit is set beyond the declared capacity — and
// returns the bit capacity, the frame's word bytes, and the bytes
// following the frame. The caller decodes the words where they belong
// (wordAt), so no intermediate copy is made.
func readFrame(data []byte) (n int, payload, rest []byte, err error) {
	if len(data) < 4 {
		return 0, nil, nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	n = int(binary.LittleEndian.Uint32(data))
	total := binarySize(n)
	if len(data) < total {
		return 0, nil, nil, fmt.Errorf("%w: truncated frame (have %d bytes, need %d)", ErrCorrupt, len(data), total)
	}
	want := binary.LittleEndian.Uint32(data[total-4:])
	if got := crc32.ChecksumIEEE(data[:total-4]); got != want {
		return 0, nil, nil, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}
	payload = data[4 : total-4]
	if rem := n % wordBits; rem != 0 {
		if wordAt(payload, wordsFor(n)-1)&^((1<<uint(rem))-1) != 0 {
			return 0, nil, nil, fmt.Errorf("%w: bits set beyond capacity %d", ErrCorrupt, n)
		}
	}
	return n, payload, data[total:], nil
}

// wordAt decodes word i of a frame's word bytes.
func wordAt(payload []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(payload[8*i:])
}

// AppendBinary appends a word-by-word snapshot of a's contents to b. Like
// Snapshot, concurrent writers may be observed at different instants per
// word; serialize quiescent sets for exact captures.
func (a *Atomic) AppendBinary(b []byte) []byte {
	return appendFrame(b, a.n, func(i int) uint64 { return a.words[i].Load() })
}

// ReadAtomic decodes one Atomic from the head of data and returns it with
// the remaining bytes, for streaming several frames from one buffer.
func ReadAtomic(data []byte) (*Atomic, []byte, error) {
	n, payload, rest, err := readFrame(data)
	if err != nil {
		return nil, nil, err
	}
	a := NewAtomic(n)
	for i := range a.words {
		a.words[i].Store(wordAt(payload, i))
	}
	return a, rest, nil
}
