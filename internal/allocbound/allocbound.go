// Package allocbound holds the decoders' bounded-allocation contract in
// their fuzz targets: a length or count read out of raw bytes — a wire
// frame, a WAL record, a snapshot, a catalogue, a geometry image, a
// shard map — must not size an allocation past what the bytes present
// can fill, so decoding n bytes may allocate at most K×n + C bytes.
package allocbound

import (
	"runtime"
	"testing"
)

const (
	// K is the bytes a decode may allocate per input byte: a two-byte
	// row becomes a whole storage.Value, and a fuzz target decodes and
	// re-encodes a batch more than once. The targets were seen at up to
	// ≈ 140 per byte on inputs of 1 KB and more.
	K = 1024
	// C is the fixed allowance: a fresh database, buffer pool or slab
	// whatever the input's length.
	C = 8 << 20
)

// Check runs decode, which reads n bytes of input, and fails t if the
// heap allocated more than K×n + C bytes meanwhile.
func Check(t testing.TB, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(K*n+C); got > bound {
		t.Fatalf("decoding %d bytes allocated %d B, bound %d×%d + %d = %d B", n, got, K, n, C, bound)
	}
}
