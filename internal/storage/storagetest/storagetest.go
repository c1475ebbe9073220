// Package storagetest checks cursors against the storage.Cursor
// contract, the way testing/iotest checks readers: every cursor kind in
// the repository runs the same batch-versus-row differential.
package storagetest

import (
	"slices"
	"strings"
	"testing"

	"spatialtf/internal/storage"
)

// BatchSizes are the NextBatch sizes the differential runs at: a
// degenerate batch, one that divides nothing, the default fetch size,
// and the server's largest.
var BatchSizes = []int{1, 7, 256, 4096}

// render is the comparable form of a row.
func render(row storage.Row) string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.String()
	}
	return strings.Join(cells, "|")
}

// DrainNext reads cur to the end with Next and closes it. It returns
// the rows rendered and the error that ended the stream, if any.
func DrainNext(cur storage.Cursor) ([]string, error) {
	defer cur.Close()
	var out []string
	for {
		_, row, ok, err := cur.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, render(row))
	}
}

// DrainBatches reads cur to the end with NextBatch(max), reusing one
// Batch the way the server does (so a producer that hands out rows it
// later overwrites is caught), and closes it. It fails t if a call
// appends more than max rows or disturbs the rows already in the batch.
func DrainBatches(t testing.TB, cur storage.Cursor, max int) ([]string, error) {
	t.Helper()
	defer cur.Close()
	var out []string
	var b storage.Batch
	for {
		b.Reset()
		err := cur.NextBatch(&b, max)
		if len(b.Rows) > max {
			t.Fatalf("NextBatch(max=%d) appended %d rows", max, len(b.Rows))
		}
		for _, row := range b.Rows {
			out = append(out, render(row))
		}
		if err != nil || len(b.Rows) == 0 {
			return out, err
		}
		// Top up the way the server does: the second call must append
		// behind the first call's rows and leave them alone.
		if n := len(b.Rows); n < max {
			before := render(b.Rows[0])
			err := cur.NextBatch(&b, max-n)
			if len(b.Rows) > max {
				t.Fatalf("topping up %d rows to max=%d gave %d", n, max, len(b.Rows))
			}
			if got := render(b.Rows[0]); got != before {
				t.Fatalf("top-up rewrote an earlier row: %q became %q", before, got)
			}
			for _, row := range b.Rows[n:] {
				out = append(out, render(row))
			}
			if err != nil || len(b.Rows) == n {
				return out, err
			}
		}
	}
}

// CheckBatchEqualsNext opens the same row source twice per batch size
// and requires the batch drain to equal the row-at-a-time drain: the
// same rows and the same final error. With ordered set, the source is
// deterministic and the rows must match in sequence — which pins the
// error position, the number of rows delivered before it; otherwise
// (parallel instances) they are compared as sorted sets.
func CheckBatchEqualsNext(t *testing.T, ordered bool, open func() (storage.Cursor, error)) {
	t.Helper()
	for _, size := range BatchSizes {
		cur, err := open()
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := DrainNext(cur)
		if cur, err = open(); err != nil {
			t.Fatal(err)
		}
		got, gotErr := DrainBatches(t, cur, size)
		if !SameError(gotErr, wantErr) {
			t.Fatalf("batch size %d: batch drain ended with %v, row drain with %v", size, gotErr, wantErr)
		}
		if !ordered {
			slices.Sort(got)
			slices.Sort(want)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("batch size %d: batch drain returned %d rows, row drain %d (or they differ)", size, len(got), len(want))
		}
	}
}

// SameError reports whether two drains ended the same way: both
// cleanly, or with errors of the same text.
func SameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
