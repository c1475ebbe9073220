package sjoin

import (
	"time"

	"spatialtf/internal/storage"
)

// This file provides a deterministic multi-processor simulator for the
// parallel join. The paper's experiments ran on a 4-CPU Sun; on hosts
// with fewer cores than the requested degree of parallelism, goroutine
// wall-clock cannot show the speedup the paper measures. The simulator
// executes each parallel instance's work serially, times each instance
// in isolation, and reports the parallel makespan: the maximum instance
// time (all instances start together on their own processor and the
// join finishes when the slowest does). Partitioning, task assignment,
// and all results are identical to ParallelIndexJoin.

// SimResult reports a simulated parallel run.
type SimResult struct {
	// Pairs is the join result (identical to the goroutine-parallel
	// execution up to order).
	Pairs []Pair
	// Elapsed is the simulated parallel makespan: max over instances.
	Elapsed time.Duration
	// InstanceTimes are the per-instance busy times; their max is
	// Elapsed, their sum approximates the 1-processor time.
	InstanceTimes []time.Duration
	// Stats aggregates the work counters across instances.
	Stats JoinStats
}

// SimulateParallelIndexJoin runs the §4.1 parallel join under the
// multi-processor simulator with the given degree of parallelism.
func SimulateParallelIndexJoin(a, b Source, cfg Config, workers int) (SimResult, error) {
	cfg = cfg.withDefaults()
	// One cache across the simulated instances, matching the shared
	// cache of the goroutine-parallel execution.
	cfg.GeomCache = cfg.resolveCache()
	workers = normWorkers(workers)
	if _, err := a.geomColumn(); err != nil {
		return SimResult{}, err
	}
	if _, err := b.geomColumn(); err != nil {
		return SimResult{}, err
	}
	pairs := SubtreePairsForWorkers(a.Tree, b.Tree, workers, cfg)
	parts := dealPairs(pairs, workers)
	var res SimResult
	for _, part := range parts {
		if len(part) == 0 {
			res.InstanceTimes = append(res.InstanceTimes, 0)
			continue
		}
		fn, err := newJoinFn(a, b, cfg, part)
		if err != nil {
			return SimResult{}, err
		}
		t0 := time.Now()
		if err := fn.Start(); err != nil {
			fn.Close()
			return SimResult{}, err
		}
		var batch storage.Batch
		for {
			batch.Reset()
			err := fn.Fetch(&batch, 1024)
			if err == nil {
				res.Pairs, err = AppendPairs(res.Pairs, batch.Rows)
			}
			if err != nil {
				fn.Close()
				return SimResult{}, err
			}
			if len(batch.Rows) == 0 {
				break
			}
		}
		fn.Close()
		d := time.Since(t0)
		res.InstanceTimes = append(res.InstanceTimes, d)
		if d > res.Elapsed {
			res.Elapsed = d
		}
		s := fn.Stats()
		res.Stats.add(s)
	}
	return res, nil
}
