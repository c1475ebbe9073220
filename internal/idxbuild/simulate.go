package idxbuild

import (
	"time"

	"spatialtf/internal/quadtree"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
)

// The simulated builds run the bodies of CreateQuadtree and CreateRtree
// with their table-function phases under tablefunc.Simulate: each
// instance runs serially and is timed in isolation, and the phase time
// is the makespan over the virtual processors. They exist because the
// paper's Table 3 ran on a 4-CPU machine, and hosts with fewer cores
// cannot demonstrate the speedup with goroutine wall-clock. The index
// contents are identical to the goroutine-parallel build's.

// SimStats extends Stats with the virtual processors' load-phase busy
// times (nil for a real build).
type SimStats struct {
	Stats
	InstanceTimes []time.Duration
}

// CreateQuadtreeSim builds the quadtree like CreateQuadtree but under
// the multi-processor simulator.
func CreateQuadtreeSim(tab *storage.Table, column string, grid quadtree.Grid, workers int) (*quadtree.Index, SimStats, error) {
	return createQuadtree(tab, column, grid, workers, true)
}

// CreateRtreeSim builds the R-tree like CreateRtree but under the
// multi-processor simulator: the MBR-load table function runs under
// tablefunc.Simulate, and the subtree clustering under
// rtree.ParallelBulkLoadSim.
func CreateRtreeSim(tab *storage.Table, column string, fanout, workers int) (*rtree.Tree, SimStats, error) {
	return createRtree(tab, column, fanout, workers, true)
}
