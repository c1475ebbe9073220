package tablefunc

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"spatialtf/internal/storage"
)

// TestSimulateMatchesParallel runs the same instances through Parallel
// and Simulate: the same rows, one measured time per unit, and a
// schedule that places every unit's time on one virtual processor.
func TestSimulateMatchesParallel(t *testing.T) {
	parts := func() []storage.Cursor {
		out := make([]storage.Cursor, 5)
		for i := range out {
			out[i] = storage.NewSliceCursor(nil, nil)
		}
		return out
	}
	factory := func(instance int, _ storage.Cursor) (TableFunction, error) {
		return &counterFn{base: instance * 1000, count: 100 * (instance + 1)}, nil
	}
	want := drainInts(t, Parallel(parts(), factory, 64))
	slices.Sort(want)
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []int
			s, err := Simulate(parts(), factory, workers, 64, func(rows []storage.Row) error {
				for _, r := range rows {
					got = append(got, int(r[0].I))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("simulated %d rows, parallel %d", len(got), len(want))
			}
			if len(s.Units) != 5 || len(s.Loads) != workers {
				t.Fatalf("%d unit times, %d loads", len(s.Units), len(s.Loads))
			}
			var units, loads int64
			for _, d := range s.Units {
				units += int64(d)
			}
			for _, d := range s.Loads {
				loads += int64(d)
			}
			if units != loads || s.Makespan != slices.Max(s.Loads) || s.Makespan < slices.Max(s.Units) {
				t.Errorf("units %d, loads %d, makespan %v, longest unit %v", units, loads, s.Makespan, slices.Max(s.Units))
			}
		})
	}
}

// TestLeastLoaded pins the list schedule: each unit, in order, onto the
// least loaded processor, ties to the lowest index.
func TestLeastLoaded(t *testing.T) {
	got := leastLoaded([]time.Duration{5, 4, 3, 3, 2}, 2)
	if want := []time.Duration{8, 9}; !slices.Equal(got, want) {
		t.Fatalf("loads %v, want %v", got, want)
	}
}

// TestSimulateErrors: an instance's error and the sink's both end the
// run, and every unit's cursor is closed either way.
func TestSimulateErrors(t *testing.T) {
	sinkErr := errors.New("sink full")
	cases := map[string]struct {
		fn   *counterFn
		sink error
		want error
	}{
		"fetch": {fn: &counterFn{count: 100, fetchErrAt: 10}},
		"sink":  {fn: &counterFn{count: 100}, sink: sinkErr, want: sinkErr},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			closed := 0
			units := make([]storage.Cursor, 3)
			for i := range units {
				units[i] = &closeCounter{Cursor: storage.NewSliceCursor(nil, nil), n: &closed}
			}
			factory := func(int, storage.Cursor) (TableFunction, error) { return tc.fn, nil }
			_, err := Simulate(units, factory, 2, 8, func([]storage.Row) error { return tc.sink })
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if closed != len(units) || tc.fn.closed != 1 {
				t.Errorf("%d of %d units closed, instance closed %d times", closed, len(units), tc.fn.closed)
			}
		})
	}
}

// closeCounter counts the Close calls on a cursor.
type closeCounter struct {
	storage.Cursor
	n *int
}

func (c *closeCounter) Close() error {
	*c.n++
	return c.Cursor.Close()
}
