package rtree

import (
	"slices"
	"sync"
	"time"
)

// ParallelBulkLoad builds an R-tree using the paper's §5 strategy:
// "subtrees are constructed on subsets of data in parallel and merged at
// the end". Items are range-partitioned on X centroid (so subtrees
// cover disjoint vertical strips and the merged tree stays well
// clustered), each partition is STR-packed by its own goroutine, and the
// subtree roots are merged under packed upper levels.
//
// The result is structurally equivalent to a sequential STR build: same
// height discipline (all leaves at one depth) and the same item set;
// tests assert query-result equivalence.
func ParallelBulkLoad(items []Item, maxEntries, workers int) *Tree {
	t, _, _ := parallelBulkLoad(items, maxEntries, workers, false)
	return t
}

// ParallelBulkLoadSim performs the same build as ParallelBulkLoad but
// under a multi-processor simulator for hosts with fewer cores than
// workers: each partition's subtree clustering runs serially and is
// timed in isolation, and the reported clusterMakespan is the maximum
// partition time (the parallel phase's completion time on `workers`
// processors). mergeTime is the inherently serial upper-level merge.
// The resulting tree is identical to a ParallelBulkLoad with the same
// inputs.
func ParallelBulkLoadSim(items []Item, maxEntries, workers int) (tree *Tree, clusterMakespan, mergeTime time.Duration) {
	return parallelBulkLoad(items, maxEntries, workers, true)
}

// parallelBulkLoad is the body of both: it clusters the partitions on
// goroutines or, with sim set, one after another, timed.
func parallelBulkLoad(items []Item, maxEntries, workers int, sim bool) (tree *Tree, clusterMakespan, mergeTime time.Duration) {
	workers = max(workers, 1)
	t := New(maxEntries)
	if len(items) == 0 {
		return t, 0, 0
	}
	if workers == 1 || len(items) < workers*t.maxEntries*2 {
		t0 := time.Now()
		tr := BulkLoad(items, maxEntries)
		return tr, time.Since(t0), 0
	}

	// Phase 1 (parallelised in the paper by a table function): the items
	// — already (mbr, rowid) pairs here — are range-partitioned on X.
	slices.SortFunc(items, func(a, b Item) int {
		return cmpFloat(a.MBR.Center().X, b.MBR.Center().X)
	})
	chunks := slices.Collect(slices.Chunk(items, (len(items)+workers-1)/workers))

	// Phase 2: cluster subtrees in parallel.
	subLeaves := make([][]*node, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		if sim {
			t0 := time.Now()
			subLeaves[i] = packLeaves(c, t.maxEntries)
			clusterMakespan = max(clusterMakespan, time.Since(t0))
			continue
		}
		wg.Add(1)
		go func(i int, c []Item) {
			defer wg.Done()
			subLeaves[i] = packLeaves(c, t.maxEntries)
		}(i, c)
	}
	wg.Wait()

	// Phase 3: merge. All partitions produced leaves at the same level,
	// so concatenating the leaf lists and packing upward yields a valid
	// tree with uniform leaf depth.
	t0 := time.Now()
	root, height := packUpward(slices.Concat(subLeaves...), t.maxEntries)
	t.root = root
	t.height = height
	t.size = len(items)
	return t, clusterMakespan, time.Since(t0)
}
