package sjoin

import (
	"fmt"
	"runtime"
)

// This file is the adaptive plan choice for the spatial join: pick the
// grid-partitioned, subtree-pair, or nested-loop path from the
// operands' cardinalities, MBR density, and the worker count. The
// choice is a heuristic over index metadata only — it never touches
// base-table geometries — so planning stays O(fanout).

// Algo names a join evaluation path.
type Algo uint8

// Join algorithms selectable through Config/JoinOptions.
const (
	// AlgoAuto lets ChoosePlan pick from the cost model.
	AlgoAuto Algo = iota
	// AlgoNested is the pre-9i baseline: iterate the first table, probe
	// the second table's index per row.
	AlgoNested
	// AlgoSubtree is the paper's §4.1 path: synchronized R-tree
	// traversal, parallelised over the subtree-pair cross product.
	AlgoSubtree
	// AlgoGrid is the grid-partitioned path: uniform tiles, per-tile
	// plane sweep, instances claiming tiles off a shared queue.
	AlgoGrid
)

// String returns the algorithm's hint spelling.
func (a Algo) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoNested:
		return "nested"
	case AlgoSubtree:
		return "subtree"
	case AlgoGrid:
		return "grid"
	default:
		return fmt.Sprintf("algo(%d)", uint8(a))
	}
}

// ParseAlgo resolves a hint string ("" and "auto" mean the cost model;
// "nested", "subtree", "grid" force a path).
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "", "auto":
		return AlgoAuto, nil
	case "nested":
		return AlgoNested, nil
	case "subtree":
		return AlgoSubtree, nil
	case "grid":
		return AlgoGrid, nil
	default:
		return AlgoAuto, fmt.Errorf("sjoin: unknown join algorithm %q (want auto, nested, subtree, or grid)", s)
	}
}

// Cost-model thresholds (documented in DESIGN.md §14).
const (
	// chooseNestedMaxOuter: with an operand this small, per-row index
	// probes beat building any parallel partitioning.
	chooseNestedMaxOuter = 64
	// chooseNestedMaxCross bounds the other side too — a tiny outer
	// over a huge inner still pays one index descent per outer row.
	chooseNestedMaxCross = 1 << 16
	// chooseMaxReplication: above this estimated average number of tile
	// copies per rectangle, grid partitioning overhead (replication +
	// classification) outweighs its balance advantage and the
	// subtree-pair path wins.
	chooseMaxReplication = 4.0
	// chooseReplicationSample bounds how many leaf entries the extent
	// estimate reads.
	chooseReplicationSample = 256
)

// normWorkers resolves a requested degree of parallelism: non-positive
// means "use every core" (runtime.GOMAXPROCS(0)).
func normWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// PlanChoice is the outcome of the cost model.
type PlanChoice struct {
	// Algo is the selected path (never AlgoAuto).
	Algo Algo
	// Workers is the resolved degree of parallelism.
	Workers int
	// Replication is the estimated average number of tile copies per
	// rectangle for the grid that would be built (0 when not computed).
	Replication float64
	// Reason is a one-line explanation for EXPLAIN output.
	Reason string
}

// ChoosePlan picks the join path for the given operands. workers <= 0
// resolves to GOMAXPROCS.
func ChoosePlan(a, b Source, cfg Config, workers int) PlanChoice {
	workers = normWorkers(workers)
	nA, nB := a.Tree.Len(), b.Tree.Len()
	minN := nA
	if nB < minN {
		minN = nB
	}
	switch {
	case nA == 0 || nB == 0:
		return PlanChoice{Algo: AlgoSubtree, Workers: 1,
			Reason: "empty operand: any path is trivial"}
	case minN <= chooseNestedMaxOuter && nA*nB <= chooseNestedMaxCross:
		return PlanChoice{Algo: AlgoNested, Workers: 1,
			Reason: fmt.Sprintf("tiny input (%d x %d rows): per-row index probes beat partitioning", nA, nB)}
	case workers <= 1:
		return PlanChoice{Algo: AlgoSubtree, Workers: 1,
			Reason: "single worker: serial synchronized R-tree traversal"}
	}
	repl := estimateReplication(a, b, cfg, workers)
	if repl > chooseMaxReplication {
		return PlanChoice{Algo: AlgoSubtree, Workers: workers, Replication: repl,
			Reason: fmt.Sprintf("dense extents: estimated grid replication %.1fx > %.1fx, subtree pairs replicate nothing", repl, chooseMaxReplication)}
	}
	return PlanChoice{Algo: AlgoGrid, Workers: workers, Replication: repl,
		Reason: fmt.Sprintf("%d workers, estimated grid replication %.1fx <= %.1fx: tiles balance better than subtree pairs", workers, repl, chooseMaxReplication)}
}

// estimateReplication predicts the average number of tile copies per
// rectangle for the grid GridShape would build: sampled mean entry
// extents (plus the distance expansion on the first side) against the
// cell dimensions, (1 + w/cellW) * (1 + h/cellH).
func estimateReplication(a, b Source, cfg Config, workers int) float64 {
	nA, nB := a.Tree.Len(), b.Tree.Len()
	cols, rows := GridShape(nA, nB, workers)
	bounds := a.Tree.Bounds().Expand(cfg.Distance).Union(b.Tree.Bounds())
	cellW := bounds.Width() / float64(cols)
	cellH := bounds.Height() / float64(rows)
	if cellW <= 0 || cellH <= 0 {
		return 1
	}
	wA, hA, kA := sampleMeanExtent(a)
	wB, hB, kB := sampleMeanExtent(b)
	if kA+kB == 0 {
		return 1
	}
	// Weight each side by its cardinality; the distance expansion
	// widens the first side by d on every edge.
	d := cfg.Distance
	fa, fb := float64(nA), float64(nB)
	w := ((wA+2*d)*fa + wB*fb) / (fa + fb)
	h := ((hA+2*d)*fa + hB*fb) / (fa + fb)
	return (1 + w/cellW) * (1 + h/cellH)
}

// sampleMeanExtent estimates the mean entry width/height of a source by
// reading a few leaves (the leftmost and rightmost root-to-leaf paths —
// biased but O(height + fanout), which is what planning can afford).
func sampleMeanExtent(s Source) (w, h float64, n int) {
	if s.Tree.Len() == 0 {
		return 0, 0, 0
	}
	var sumW, sumH float64
	for _, side := range []int{0, 1} {
		cur := s.Tree.Root()
		for !cur.IsLeaf() {
			i := 0
			if side == 1 {
				i = cur.NumEntries() - 1
			}
			cur = cur.Child(i)
		}
		for i := 0; i < cur.NumEntries() && n < chooseReplicationSample; i++ {
			m := cur.EntryMBR(i)
			sumW += m.Width()
			sumH += m.Height()
			n++
		}
		if s.Tree.Height() <= 1 {
			break // single node: both paths are the same leaf
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return sumW / float64(n), sumH / float64(n), n
}
