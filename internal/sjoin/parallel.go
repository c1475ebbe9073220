package sjoin

import (
	"cmp"
	"slices"
	"sync/atomic"

	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
)

// This file implements §4.1: "to better avail of the table-function-
// level parallelism, we modify our approach to perform a spatial-join of
// subtrees of the R-tree indexes. ... we descend each index by a certain
// level and identify the roots of the subtrees at that level and join
// the subtrees." The subtree-pair stream plays the role of the
//
//	CURSOR(select * from table(subtree_root(idxA, level)),
//	                table(subtree_root(idxB, level)))
//
// operand: its pairs are queued longest first, and the parallel
// instances of the spatial_join function claim them one at a time, the
// way the grid join's instances claim tiles.

// SubtreePairs enumerates the cross product of the subtree roots of
// both trees after descending each by the given level, keeping only
// pairs whose subtree MBRs can satisfy the predicate (a disjoint pair
// can produce no results and is pruned before scheduling). Descending
// by 1 on Figure 1's trees yields (R11,S11), (R11,S12), (R12,S11),
// (R12,S12). When a and b are the same tree and cfg puts the join in
// the mirror mode (UnorderedPairs), the product keeps each unordered
// pair of roots once: (rᵢ, rⱼ) with i ≤ j.
func SubtreePairs(a, b *rtree.Tree, descend int, cfg Config) []PairOfRoots {
	cfg = cfg.WithDefaults()
	return crossRootPairs(a.SubtreeRoots(descend), b.SubtreeRoots(descend), cfg, cfg.unordered(a == b))
}

// PairOfRoots is one subtree-join task.
type PairOfRoots struct {
	A, B rtree.NodeRef
}

// SubtreePairsForWorkers picks the smallest descend level whose pruned
// cross product yields at least `want` tasks (the paper: "we descend
// both trees as far below as to get appropriate number of subtree-
// joins"), defaulting to a few tasks per worker for balance. The
// descent is incremental: each level's root lists are expanded from the
// previous level's, so the trees are walked once to the final level
// instead of re-descending from the root per candidate level.
func SubtreePairsForWorkers(a, b *rtree.Tree, workers int, cfg Config) []PairOfRoots {
	workers = normWorkers(workers)
	cfg = cfg.WithDefaults()
	want := workers * 4 // a few tasks per instance smooths skew
	maxDescend := a.Height() - 1
	if h := b.Height() - 1; h < maxDescend {
		maxDescend = h
	}
	unordered := cfg.unordered(a == b)
	ra := a.SubtreeRoots(0)
	rb := b.SubtreeRoots(0)
	for d := 0; ; d++ {
		pairs := crossRootPairs(ra, rb, cfg, unordered)
		if len(pairs) >= want || d >= maxDescend {
			return pairs
		}
		ra = childRoots(ra)
		rb = childRoots(rb)
	}
}

// crossRootPairs is the pruned cross product of two root lists — the
// inner step of SubtreePairs, shared by the incremental descent. With
// unordered set the lists are one tree's roots at one level, and root i
// is paired with roots j ≥ i only.
func crossRootPairs(ra, rb []rtree.NodeRef, cfg Config, unordered bool) []PairOfRoots {
	var out []PairOfRoots
	for i, na := range ra {
		ma := na.MBR()
		from := rb
		if unordered {
			from = rb[i:]
		}
		for _, nb := range from {
			if cfg.primaryAccepts(ma, nb.MBR()) {
				out = append(out, PairOfRoots{A: na, B: nb})
			}
		}
	}
	return out
}

// childRoots expands a root list by one level, preserving left-to-right
// order (so the incremental descent enumerates the same roots, in the
// same order, as SubtreeRoots at that level). Leaves stay as they are —
// the descent cap keeps them out in practice, this is a guard.
func childRoots(roots []rtree.NodeRef) []rtree.NodeRef {
	out := make([]rtree.NodeRef, 0, len(roots)*2)
	for _, r := range roots {
		if r.IsLeaf() {
			out = append(out, r)
			continue
		}
		for i := 0; i < r.NumEntries(); i++ {
			out = append(out, r.Child(i))
		}
	}
	return out
}

// pairQueue holds the subtree-join tasks of one parallel join, longest
// first, and the shared cursor its instances claim them off.
type pairQueue struct {
	pairs []PairOfRoots
	next  atomic.Int64
}

// newPairQueue orders pairs into a claim queue, by estimated cost
// descending (longestFirst).
func newPairQueue(pairs []PairOfRoots) *pairQueue {
	longestFirst(pairs, pairCost)
	return &pairQueue{pairs: pairs}
}

// longestFirst orders a claim queue's units by cost descending, stable
// over the enumeration order: the expensive units are claimed while
// every instance is still busy, so a straggler cannot start last and
// extend the makespan on its own.
func longestFirst[T any](units []T, cost func(T) float64) {
	slices.SortStableFunc(units, func(p, q T) int { return cmp.Compare(cost(q), cost(p)) })
}

// claimNext takes the next unclaimed index off a queue of n units
// through its shared cursor, or -1 when the queue is exhausted. This is
// the one way parallel instances divide work: an instance that
// finishes early keeps claiming, so a skewed unit delays only the
// instance holding it.
func claimNext(next *atomic.Int64, n int) int {
	k := next.Add(1) - 1
	if k >= int64(n) {
		return -1
	}
	return int(k)
}

// pairCost estimates the join work under a subtree pair.
func pairCost(p PairOfRoots) float64 {
	return float64(p.A.NumEntries()) * float64(p.B.NumEntries())
}

// prepareInstances normalises what every multi-instance execution of
// the join shares: the defaults, one decoded-geometry cache across the
// instances (the sharded LRU is safe for concurrent use; otherwise each
// instance would warm a private cache), the resolved degree of
// parallelism, and operands checked once up front.
func prepareInstances(a, b Source, cfg Config, workers int) (Config, int, error) {
	cfg = cfg.WithDefaults()
	cfg.GeomCache = cfg.resolveCache()
	if _, err := a.geomColumn(); err != nil {
		return cfg, 0, err
	}
	if _, err := b.geomColumn(); err != nil {
		return cfg, 0, err
	}
	return cfg, normWorkers(workers), nil
}

// placeholders returns n empty input partitions: the instances of the
// spatial_join table function take their work from their candidate
// sources, so the partitions the framework wants are positional only.
func placeholders(n int) []storage.Cursor {
	inputs := make([]storage.Cursor, n)
	for i := range inputs {
		inputs[i] = storage.NewSliceCursor(nil, nil)
	}
	return inputs
}

// runInstances runs n parallel instances of the spatial_join table
// function, instance i over the candidate source sourceOf(i), and
// merges their pipelined outputs (order unspecified). All instances
// share cfg.Trace (stage aggregates are atomic), so one per-query trace
// sums the parallel instances' work.
func runInstances(a, b Source, cfg Config, n int, sourceOf func(i int) candSource) storage.Cursor {
	factory := func(instance int, _ storage.Cursor) (tablefunc.TableFunction, error) {
		fn, err := newJoinFn(a, b, cfg, sourceOf(instance))
		if err != nil {
			return nil, err
		}
		return tablefunc.Traced(fn, cfg.Trace), nil
	}
	return tablefunc.Parallel(placeholders(n), factory, cfg.FetchBatch)
}

// ParallelIndexJoin evaluates the spatial join with `workers` parallel
// instances of the spatial_join table function, which claim the
// subtree-pair tasks off one longest-first queue. The returned cursor
// merges the instances' pipelined outputs (order unspecified).
func ParallelIndexJoin(a, b Source, cfg Config, workers int) (storage.Cursor, error) {
	cfg, workers, err := prepareInstances(a, b, cfg, workers)
	if err != nil {
		return nil, err
	}
	q := newPairQueue(SubtreePairsForWorkers(a.Tree, b.Tree, workers, cfg))
	return runInstances(a, b, cfg, min(workers, len(q.pairs)), func(int) candSource {
		return &treeSource{queue: q}
	}), nil
}
