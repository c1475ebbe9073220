package idxbuild

import (
	"time"

	"spatialtf/internal/btree"
	"spatialtf/internal/geom"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
)

// This file provides a deterministic multi-processor simulator for
// parallel index creation, mirroring sjoin's simulator: each
// table-function instance's work runs serially and is timed in
// isolation; the simulated parallel load-phase time is the makespan
// (max over instances). It exists because the paper's Table 3 ran on a
// 4-CPU machine, and single-core hosts cannot demonstrate the speedup
// with goroutine wall-clock. Results (index contents) are identical to
// the goroutine-parallel build.

// SimStats extends Stats with the per-instance load times.
type SimStats struct {
	Stats
	InstanceTimes []time.Duration
}

// CreateQuadtreeSim builds the quadtree like CreateQuadtree but under
// the multi-processor simulator.
func CreateQuadtreeSim(tab *storage.Table, column string, grid quadtree.Grid, workers int) (*quadtree.Index, SimStats, error) {
	if workers < 1 {
		workers = 1
	}
	col, err := tab.ColumnIndex(column)
	if err != nil {
		return nil, SimStats{}, err
	}
	var (
		entries  []btree.Entry
		makespan time.Duration
		times    []time.Duration
	)
	for _, r := range tab.PageRanges(workers) {
		cur := storage.NewRangeCursor(tab, r[0], r[1])
		fn := &tessellateFn{input: cur, geomCol: col, grid: grid}
		t0 := time.Now()
		if err := fn.Start(); err != nil {
			return nil, SimStats{}, err
		}
		var batch storage.Batch
		for {
			batch.Reset()
			if err := fn.Fetch(&batch, tablefunc.DefaultBatch); err != nil {
				fn.Close()
				return nil, SimStats{}, err
			}
			if len(batch.Rows) == 0 {
				break
			}
			for _, row := range batch.Rows {
				key, err := tileRowKey(row)
				if err != nil {
					fn.Close()
					return nil, SimStats{}, err
				}
				entries = append(entries, btree.Entry{Key: key})
			}
		}
		fn.Close()
		d := time.Since(t0)
		times = append(times, d)
		if d > makespan {
			makespan = d
		}
	}
	// The B-tree build phase is a few percent of the total, so it is
	// charged as measured (its internal chunk sort does parallelise for
	// real on multi-core hosts).
	t0 := time.Now()
	idx := quadtree.NewIndexFromEntries(grid, entries, workers)
	buildTime := time.Since(t0)
	return idx, SimStats{
		Stats: Stats{
			Rows:       tab.Len(),
			Entries:    idx.EntryCount(),
			Workers:    workers,
			LoadPhase:  makespan,
			BuildPhase: buildTime,
			Total:      makespan + buildTime,
		},
		InstanceTimes: times,
	}, nil
}

// CreateRtreeSim builds the R-tree like CreateRtree but under the
// multi-processor simulator: the MBR-load phase is simulated per
// partition, and the subtree-clustering phase is simulated by timing
// each partition's leaf packing serially (makespan) plus the measured
// merge.
func CreateRtreeSim(tab *storage.Table, column string, fanout, workers int) (*rtree.Tree, SimStats, error) {
	if workers < 1 {
		workers = 1
	}
	col, err := tab.ColumnIndex(column)
	if err != nil {
		return nil, SimStats{}, err
	}
	var (
		items    []rtree.Item
		makespan time.Duration
		times    []time.Duration
	)
	for _, r := range tab.PageRanges(workers) {
		t0 := time.Now()
		var ferr error
		terr := tab.ScanRange(r[0], r[1], func(id storage.RowID, row storage.Row) bool {
			m := geom.MBROf(row[col].G)
			if !m.Valid() {
				ferr = errInvalidMBR(id)
				return false
			}
			items = append(items, rtree.Item{MBR: m, ID: id})
			return true
		})
		if terr != nil {
			return nil, SimStats{}, terr
		}
		if ferr != nil {
			return nil, SimStats{}, ferr
		}
		d := time.Since(t0)
		times = append(times, d)
		if d > makespan {
			makespan = d
		}
	}
	// Clustering phase: the per-partition subtree packing is simulated
	// (max over partitions) and the inherently serial upper-level merge
	// is charged in full.
	tree, clusterMakespan, mergeTime := rtree.ParallelBulkLoadSim(items, fanout, workers)
	buildSim := clusterMakespan + mergeTime
	return tree, SimStats{
		Stats: Stats{
			Rows:       tab.Len(),
			Entries:    len(items),
			Workers:    workers,
			LoadPhase:  makespan,
			BuildPhase: buildSim,
			Total:      makespan + buildSim,
		},
		InstanceTimes: times,
	}, nil
}

func errInvalidMBR(id storage.RowID) error {
	return &invalidMBRError{id: id}
}

type invalidMBRError struct{ id storage.RowID }

func (e *invalidMBRError) Error() string {
	return "idxbuild: row " + e.id.String() + " has invalid MBR"
}
