package rtree

import (
	"slices"
	"sync"
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
	workers = max(workers, 1)
	t := New(maxEntries)
	if len(items) == 0 {
		return t
	}
	if workers == 1 || len(items) < workers*t.maxEntries*2 {
		return BulkLoad(items, maxEntries)
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
	root, height := packUpward(slices.Concat(subLeaves...), t.maxEntries)
	t.root = root
	t.height = height
	t.size = len(items)
	return t
}
