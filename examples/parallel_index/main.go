// Parallel index creation: the Table 3 scenario — build Quadtree and
// R-tree indexes over complex block-group polygons at increasing
// degrees of parallelism and report the phase timings, demonstrating
// that tessellation dominates quadtree creation and parallel table
// functions recover most of it.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"spatialtf"
	"spatialtf/internal/datagen"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/quadtree"
)

func main() {
	var (
		n     = flag.Int("n", 4000, "number of block-group polygons")
		level = flag.Int("level", 8, "quadtree tiling level")
		seed  = flag.Int64("seed", 3, "generator seed")
	)
	flag.Parse()

	ds := datagen.BlockGroups(*n, *seed)
	tab, _, err := datagen.LoadTable("blockgroups", ds)
	if err != nil {
		log.Fatal(err)
	}
	grid, err := quadtree.NewGrid(ds.Bounds, *level)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d complex polygons, %d total vertices\n", tab.Len(), ds.TotalVertices())
	fmt.Printf("timing mode: wall clock on %d CPUs\n", runtime.NumCPU())

	fmt.Printf("\n%-10s %-22s %-22s\n", "workers", "quadtree (tessellate)", "rtree (mbr load)")
	var q1, r1 float64
	for _, w := range []int{1, 2, 4} {
		_, qs, err := idxbuild.CreateQuadtree(tab, "geom", grid, w)
		if err != nil {
			log.Fatal(err)
		}
		_, rs, err := idxbuild.CreateRtree(tab, "geom", 0, w)
		if err != nil {
			log.Fatal(err)
		}
		q := qs.Total.Seconds()
		r := rs.Total.Seconds()
		if w == 1 {
			q1, r1 = q, r
		}
		fmt.Printf("%-10d %-22s %-22s", w,
			fmt.Sprintf("%.3fs (%.3fs)", q, qs.LoadPhase.Seconds()),
			fmt.Sprintf("%.3fs (%.3fs)", r, rs.LoadPhase.Seconds()))
		if w > 1 {
			fmt.Printf("  speedup: quadtree %.2fx, rtree %.2fx", q1/q, r1/r)
		}
		fmt.Println()
	}

	// The framework path: the same builds through CREATE INDEX with the
	// PARALLEL clause, registered in the metadata catalogue.
	db := spatialtf.Open()
	if _, err := db.LoadDataset("bg", spatialtf.BlockGroups(*n/4, *seed)); err != nil {
		log.Fatal(err)
	}
	if _, err := db.CreateIndex("bg_qt", "bg", spatialtf.Quadtree,
		spatialtf.IndexOptions{TilingLevel: *level, Bounds: spatialtf.World, Parallel: 4}); err != nil {
		log.Fatal(err)
	}
	if _, err := db.CreateIndex("bg_rt", "bg", spatialtf.RTree,
		spatialtf.IndexOptions{Parallel: 4}); err != nil {
		log.Fatal(err)
	}
	metas, err := db.IndexMetadata()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nindexes created through the extensible-indexing framework:")
	for _, m := range metas {
		fmt.Printf("  %s kind=%s level=%d rows=%d\n", m.IndexName, m.Kind, m.TilingLevel, m.RowsIndexed)
	}
}
