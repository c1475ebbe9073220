package sjoin

import (
	"fmt"
	"time"

	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
)

// This file times the parallel joins under tablefunc.Simulate. The
// paper's experiments ran on a 4-CPU Sun; on hosts with fewer cores
// than the requested degree of parallelism, goroutine wall-clock cannot
// show the speedup the paper measures. A unit is what one claim of a
// parallel execution hands an instance — one subtree pair, or one grid
// tile — and each unit runs serially through the real JoinFunction.
// The queue and all results are identical to the goroutine execution.

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
	// filter plus that unit's share of the secondary filter), in queue
	// order.
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
// tablefunc.Simulate with the given degree of parallelism: one
// instance per unit of the algorithm's claim queue, in queue order,
// list-scheduled onto the least loaded virtual processor.
func Simulate(a, b Source, cfg Config, algo Algo, workers int) (SimResult, error) {
	cfg, workers, err := prepareInstances(a, b, cfg, workers)
	if err != nil {
		return SimResult{}, err
	}
	var res SimResult
	var units []candSource
	switch algo {
	case AlgoSubtree:
		for _, p := range newPairQueue(SubtreePairsForWorkers(a.Tree, b.Tree, workers, cfg)).pairs {
			units = append(units, &treeSource{roots: []PairOfRoots{p}})
		}
	case AlgoGrid:
		gs := buildGridState(a, b, cfg, workers)
		res.Grid = gs.grid
		for ti := range gs.tiles {
			units = append(units, gridSource{&gridState{d: gs.d, grow: gs.grow, unordered: gs.unordered, tiles: gs.tiles[ti : ti+1]}})
		}
	default:
		return SimResult{}, fmt.Errorf("sjoin: no parallel execution to simulate for algorithm %v", algo)
	}
	// One function serves every unit in turn, its source rebound per
	// unit, so the counters accumulate as they do for an instance that
	// claims several units.
	fn, err := newJoinFn(a, b, cfg, nil)
	if err != nil {
		return SimResult{}, err
	}
	factory := func(i int, _ storage.Cursor) (tablefunc.TableFunction, error) {
		fn.src = units[i]
		return fn, nil
	}
	s, err := tablefunc.Simulate(placeholders(len(units)), factory, workers, storage.DefaultBatch, func(rows []storage.Row) (err error) {
		res.Pairs, err = AppendPairs(res.Pairs, rows)
		return err
	})
	if err != nil {
		return SimResult{}, err
	}
	res.Stats = fn.Stats()
	res.Elapsed, res.InstanceTimes, res.UnitTimes = s.Makespan, s.Loads, s.Units
	return res, nil
}
