package idxbuild

import (
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
)

func TestCreateQuadtreeSimMatchesReal(t *testing.T) {
	ds := datagen.BlockGroups(200, 401)
	tab := loadTable(t, ds)
	grid, err := quadtree.NewGrid(ds.Bounds, 7)
	if err != nil {
		t.Fatal(err)
	}
	real, _, err := CreateQuadtree(tab, "geom", grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		sim, stats, err := CreateQuadtreeSim(tab, "geom", grid, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if sim.EntryCount() != real.EntryCount() {
			t.Fatalf("workers=%d: %d entries, real build %d", w, sim.EntryCount(), real.EntryCount())
		}
		if stats.Workers != w || stats.Rows != tab.Len() || stats.Total <= 0 {
			t.Errorf("workers=%d: stats %+v", w, stats)
		}
		if w > 1 && len(stats.InstanceTimes) != w {
			t.Errorf("workers=%d: %d instance times", w, len(stats.InstanceTimes))
		}
		// The makespan is the max instance time.
		var max int64
		for _, d := range stats.InstanceTimes {
			if int64(d) > max {
				max = int64(d)
			}
		}
		if int64(stats.LoadPhase) != max {
			t.Errorf("workers=%d: load phase %v != max instance %v", w, stats.LoadPhase, max)
		}
		// Same candidates for a probe window.
		win := geom.MBR{MinX: 100, MinY: 100, MaxX: 300, MaxY: 300}
		a := sim.WindowCandidates(win)
		b := real.WindowCandidates(win)
		if len(a) != len(b) {
			t.Fatalf("workers=%d: %d candidates, real %d", w, len(a), len(b))
		}
	}
}

func TestCreateRtreeSimMatchesReal(t *testing.T) {
	ds := datagen.BlockGroups(2000, 409)
	tab := loadTable(t, ds)
	real, _, err := CreateRtree(tab, "geom", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		sim, stats, err := CreateRtreeSim(tab, "geom", 0, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if err := sim.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if sim.Len() != real.Len() {
			t.Fatalf("workers=%d: %d items, real %d", w, sim.Len(), real.Len())
		}
		if stats.Total <= 0 || stats.Rows != tab.Len() {
			t.Errorf("workers=%d: stats %+v", w, stats)
		}
		q := geom.MBR{MinX: 200, MinY: 200, MaxX: 500, MaxY: 500}
		count := func(tr *rtree.Tree) int {
			n := 0
			tr.Search(q, func(rtree.Item) bool { n++; return true })
			return n
		}
		if count(sim) != count(real) {
			t.Fatalf("workers=%d: query results differ", w)
		}
	}
}

func TestCreateRtreeSimBadColumn(t *testing.T) {
	tab := loadTable(t, datagen.Stars(10, 419))
	if _, _, err := CreateRtreeSim(tab, "nope", 0, 2); err == nil {
		t.Errorf("bad column: want error")
	}
	grid, _ := quadtree.NewGrid(datagen.World, 5)
	if _, _, err := CreateQuadtreeSim(tab, "nope", grid, 2); err == nil {
		t.Errorf("bad column quadtree sim: want error")
	}
}

func TestParallelBulkLoadSimSmallInput(t *testing.T) {
	// Tiny inputs take the sequential path and still report a cluster
	// time.
	items := []rtree.Item{
		{MBR: geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, ID: storage.RowID{Page: 1, Slot: 0}},
	}
	tree, cluster, merge := rtree.ParallelBulkLoadSim(items, 8, 4)
	if tree.Len() != 1 || merge != 0 || cluster < 0 {
		t.Fatalf("tiny sim build: len=%d cluster=%v merge=%v", tree.Len(), cluster, merge)
	}
	empty, _, _ := rtree.ParallelBulkLoadSim(nil, 8, 4)
	if empty.Len() != 0 {
		t.Fatalf("empty sim build has %d items", empty.Len())
	}
}
