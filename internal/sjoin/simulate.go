package sjoin

import (
	"fmt"
	"time"

	"spatialtf/internal/storage"
)

// This file provides a deterministic multi-processor simulator for the
// parallel joins. The paper's experiments ran on a 4-CPU Sun; on hosts
// with fewer cores than the requested degree of parallelism, goroutine
// wall-clock cannot show the speedup the paper measures. The simulator
// runs the units of work a parallel execution hands its instances — a
// dealt partition of the subtree-pair stream, or one grid tile —
// serially through the real JoinFunction, times each in isolation, and
// list-schedules the unit times onto virtual processors. Partitioning
// and all results are identical to the goroutine execution.

// SimResult reports a simulated parallel run.
type SimResult struct {
	// Pairs is the join result (identical to the goroutine-parallel
	// execution up to order).
	Pairs []Pair
	// Elapsed is the simulated parallel makespan: max over processors.
	Elapsed time.Duration
	// InstanceTimes are the virtual processors' busy times; their max
	// is Elapsed, their sum approximates the 1-processor time.
	InstanceTimes []time.Duration
	// UnitTimes are the measured costs of the work units (primary
	// filter plus that unit's share of the secondary filter), in the
	// order they were scheduled.
	UnitTimes []time.Duration
	// Grid is the partitioning used (AlgoGrid only).
	Grid Grid
	// Stats aggregates the work counters.
	Stats JoinStats
}

// Skew returns the max and mean unit time; their ratio is the skew
// factor the benchmarks report (1.0 = perfectly even units).
func (r SimResult) Skew() (longest, mean time.Duration) {
	if len(r.UnitTimes) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, d := range r.UnitTimes {
		sum += d
		longest = max(longest, d)
	}
	return longest, sum / time.Duration(len(r.UnitTimes))
}

// Simulate runs the parallel join algo (AlgoSubtree or AlgoGrid) under
// the multi-processor simulator with the given degree of parallelism.
// The units are greedily list-scheduled in queue order, each onto the
// least loaded virtual processor: for the grid's longest-first tile
// queue that is the assignment dynamic dealing converges to when every
// claim goes to the first free instance; the subtree path deals at most
// one partition per instance, so each lands on its own processor and
// the makespan is the slowest instance's time.
func Simulate(a, b Source, cfg Config, algo Algo, workers int) (SimResult, error) {
	cfg, workers, err := prepareInstances(a, b, cfg, workers)
	if err != nil {
		return SimResult{}, err
	}
	var res SimResult
	var units []candSource
	switch algo {
	case AlgoSubtree:
		for _, part := range dealPairs(SubtreePairsForWorkers(a.Tree, b.Tree, workers, cfg), workers) {
			units = append(units, &treeSource{roots: part})
		}
	case AlgoGrid:
		gs := buildGridState(a, b, cfg, workers)
		res.Grid = gs.grid
		for ti := range gs.tiles {
			units = append(units, gridSource{&gridState{d: gs.d, unordered: gs.unordered, tiles: gs.tiles[ti : ti+1]}})
		}
	default:
		return SimResult{}, fmt.Errorf("sjoin: no parallel execution to simulate for algorithm %v", algo)
	}
	// One function runs every unit in turn, so the counters accumulate
	// and the buffers stay warm, as they do for an instance that works
	// through several units.
	fn, err := newJoinFn(a, b, cfg, nil)
	if err != nil {
		return SimResult{}, err
	}
	defer fn.Close()
	var batch storage.Batch
	for _, u := range units {
		fn.src = u
		t0 := time.Now()
		err := drive(fn, &batch, storage.DefaultBatch, func(rows []storage.Row) (err error) {
			res.Pairs, err = AppendPairs(res.Pairs, rows)
			return err
		})
		if err != nil {
			return SimResult{}, err
		}
		res.UnitTimes = append(res.UnitTimes, time.Since(t0))
	}
	res.Stats = fn.Stats()
	_, res.InstanceTimes = leastLoaded(res.UnitTimes, workers)
	for _, l := range res.InstanceTimes {
		res.Elapsed = max(res.Elapsed, l)
	}
	return res, nil
}
