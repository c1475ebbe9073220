package spatialtf

// The shapes the paper's tables and figures show, asserted on the
// fixtures bench_test.go times: each test fails when the property its
// benchmark's columns are read for breaks.

import (
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/tablefunc"
)

// TestTable1Shape: on the counties self-join the result grows with the
// distance, both strategies return it, and the index join reads fewer
// index nodes than the nested loop's per-row probes at every distance.
func TestTable1Shape(t *testing.T) {
	fixtures(t)
	prev := 0
	for _, cells := range table1Cells {
		cfg := sjoin.DefaultConfig()
		cfg.Distance = table1Distance(cells)
		nl, nlStats, err := nestedLoop(fixCounties, fixCounties, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ij, ijStats, err := indexJoin(fixCounties, fixCounties, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if nl != ij {
			t.Fatalf("%g cells: nested loop %d pairs, index join %d", cells, nl, ij)
		}
		if ij <= prev {
			t.Errorf("%g cells: result %d did not grow from %d", cells, ij, prev)
		}
		prev = ij
		if ijStats.NodeAccesses >= nlStats.NodeAccesses {
			t.Errorf("%g cells: index join read %d nodes, nested loop %d", cells, ijStats.NodeAccesses, nlStats.NodeAccesses)
		}
	}
}

// TestTable2Shape: at every subset size the nested loop, the 1-worker
// index join and the 2-worker subtree join return the same pair count.
func TestTable2Shape(t *testing.T) {
	table2Fixture()
	cfg := sjoin.DefaultConfig()
	for _, n := range table2Sizes {
		src := table2Stars[n]
		nl, _, err := nestedLoop(src, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		i1, _, err := indexJoin(src, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		i2, err := parallelJoin(src, src, cfg, sjoin.AlgoSubtree, 2)
		if err != nil {
			t.Fatal(err)
		}
		if nl != i1 || i1 != i2 || nl < n {
			t.Errorf("size=%d: nested loop %d pairs, index join %d, 2 workers %d", n, nl, i1, i2)
		}
	}
}

// TestFigure1Shape: the subtree pairs scheduled after a one-level
// descent, plus the root pairs whose MBRs are disjoint, make up the
// cross product of the two indexes' roots, each pair once.
func TestFigure1Shape(t *testing.T) {
	a, b := figure1Fixture(t)
	rootsA, rootsB := a.Tree.SubtreeRoots(1), b.Tree.SubtreeRoots(1)
	pairs := sjoin.SubtreePairs(a.Tree, b.Tree, 1, sjoin.DefaultConfig())
	pruned := 0
	for _, ra := range rootsA {
		for _, rb := range rootsB {
			if !ra.MBR().Intersects(rb.MBR()) {
				pruned++
			}
		}
	}
	seen := make(map[sjoin.PairOfRoots]bool, len(pairs))
	for _, p := range pairs {
		if seen[p] || !p.A.MBR().Intersects(p.B.MBR()) {
			t.Fatalf("pair %v scheduled twice or MBR-disjoint", p)
		}
		seen[p] = true
	}
	if len(rootsA) < 2 || len(rootsB) < 2 || pruned == 0 {
		t.Fatalf("%d × %d roots, %d pruned: the fixture no longer shows the figure", len(rootsA), len(rootsB), pruned)
	}
	if len(pairs)+pruned != len(rootsA)*len(rootsB) {
		t.Errorf("%d pairs + %d pruned != %d × %d roots", len(pairs), pruned, len(rootsA), len(rootsB))
	}
}

// TestFigure2Shape: the table-function partitions of the geometry table
// hold every row once, and every tile row the tessellators produce
// arrives in the index B-tree.
func TestFigure2Shape(t *testing.T) {
	const workers = 3
	ds := datagen.BlockGroups(300, 7)
	tab, _, err := datagen.LoadTable("fig2", ds)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := quadtree.NewGrid(ds.Bounds, 6)
	if err != nil {
		t.Fatal(err)
	}
	parts := tablefunc.PartitionTable(tab, workers)
	rows := 0
	for _, p := range parts {
		n, err := drainRows(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows += n
	}
	if len(parts) != workers || rows != tab.Len() {
		t.Errorf("%d partitions hold %d rows, want %d and %d", len(parts), rows, workers, tab.Len())
	}
	idx, stats, err := idxbuild.CreateQuadtree(tab, "geom", grid, workers)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries == 0 || idx.EntryCount() != stats.Entries {
		t.Errorf("%d tile rows, %d index entries", stats.Entries, idx.EntryCount())
	}
}
