package pager

import (
	"bytes"
	"encoding/binary"
	"testing"

	"spatialtf/internal/allocbound"
)

// FuzzWALDecode hammers the WAL record decoder with forged input. The
// hardening contract matches wire.FuzzWireDecode: no panic, no
// over-allocation from attacker-controlled counts (every length is
// bounded against the bytes actually present before it sizes a slice,
// and allocbound bounds the whole decode), and anything the decoder
// accepts must re-encode to a decodable record.
func FuzzWALDecode(f *testing.F) {
	// Seed with well-formed records of every type.
	seeds := []walRecord{
		{typ: recAlloc, lsn: 1, tx: 1, space: 1, page: 1, kind: KindSlotted},
		{typ: recPatch, lsn: 2, tx: 1, page: 1, patches: []Patch{{Off: 4, Data: []byte{1, 2, 3, 4}}}},
		{typ: recImage, lsn: 3, tx: 2, space: 1, page: 2, kind: KindOverflow, image: bytes.Repeat([]byte{7}, 128)},
		{typ: recCommit, lsn: 4, tx: 1},
	}
	var all []byte
	for i := range seeds {
		one := appendWALRecord(nil, &seeds[i])
		f.Add(one)
		all = append(all, one...)
	}
	f.Add(all)
	f.Add(encodeWALHeader(512, 1))
	// A forged count: a record frame claiming 32 MiB.
	f.Add(binary.LittleEndian.AppendUint32(nil, 32<<20))

	f.Fuzz(func(t *testing.T, data []byte) {
		allocbound.Check(t, len(data), func() { decodeWAL(t, data) })
	})
}

// decodeWAL runs FuzzWALDecode's decoders over data.
func decodeWAL(t *testing.T, data []byte) {
	rest := data
	for len(rest) > 0 {
		rec, n, err := decodeWALRecord(rest)
		if err != nil {
			break
		}
		if n <= 0 || n > len(rest) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(rest))
		}
		// Accepted records must carry only bytes that were present:
		// the decoder must never hand back more data than the frame
		// held (over-allocation guard).
		total := len(rec.image)
		for _, p := range rec.patches {
			total += len(p.Data)
		}
		if total > n {
			t.Fatalf("decoded %d payload bytes from a %d-byte frame", total, n)
		}
		// Round-trip: re-encoding an accepted record yields a frame
		// the decoder accepts again.
		re := appendWALRecord(nil, &rec)
		if _, _, err := decodeWALRecord(re); err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		rest = rest[n:]
	}
	// Headers too: arbitrary bytes must never panic the header
	// decoder.
	_, _, _ = decodeWALHeader(data)
}
