package tablefunc

import (
	"cmp"
	"slices"
	"time"

	"spatialtf/internal/storage"
)

// Schedule is the timing of a simulated parallel run.
type Schedule struct {
	// Units are the measured instance times, one per unit, in unit
	// order: factory call to close, the sink's work included.
	Units []time.Duration
	// Loads are the virtual processors' busy times. Their sum is the
	// units' sum, which approximates the 1-processor time.
	Loads []time.Duration
	// Makespan is the max over Loads: the simulated parallel time.
	Makespan time.Duration
}

// Simulate runs the instances Parallel would run over units, one
// instance per unit, one at a time on the caller's goroutine, handing
// the rows of every fetch to sink, and times each instance. It then
// list-schedules the times onto workers virtual processors. Results
// are those of the goroutine execution; only the timing is simulated.
// It stands in for the parallel speedup on hosts with fewer cores than
// workers, and assumes no cross-instance contention. batch <= 0
// selects DefaultBatch.
func Simulate(units []storage.Cursor, factory Factory, workers, batch int, sink func(rows []storage.Row) error) (Schedule, error) {
	if batch <= 0 {
		batch = DefaultBatch
	}
	var b storage.Batch
	var sinkErr error
	next := func() *storage.Batch { b.Reset(); return &b }
	put := func(b *storage.Batch) bool { sinkErr = sink(b.Rows); return sinkErr == nil }
	times := make([]time.Duration, len(units))
	for i, part := range units {
		t0 := time.Now()
		err := cmp.Or(runInstance(i, part, factory, batch, next, put), sinkErr)
		part.Close()
		times[i] = time.Since(t0)
		if err != nil {
			for _, rest := range units[i+1:] {
				rest.Close()
			}
			return Schedule{}, err
		}
	}
	loads := leastLoaded(times, max(workers, 1))
	return Schedule{Units: times, Loads: loads, Makespan: slices.Max(loads)}, nil
}

// leastLoaded is the greedy list scheduler: it places the units, in the
// order given, each on the processor with the least load so far (ties
// to the lowest index), and returns the processors' loads. For a
// longest-first claim queue that is the schedule dynamic claiming
// converges to when every claim goes to the first free instance.
func leastLoaded(costs []time.Duration, workers int) []time.Duration {
	loads := make([]time.Duration, workers)
	for _, c := range costs {
		loads[slices.Index(loads, slices.Min(loads))] += c
	}
	return loads
}
