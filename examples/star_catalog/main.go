// Star catalogue scaling: the Table 2 scenario — self-join of a
// clustered star catalogue at growing subset sizes, comparing the
// nested-loop baseline, the serial pipelined table-function join, and
// the parallel subtree-decomposed join.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"spatialtf"
)

func main() {
	var (
		maxSize = flag.Int("max", 20000, "largest subset size")
		workers = flag.Int("workers", 2, "parallel join instances")
		seed    = flag.Int64("seed", 2, "generator seed")
	)
	flag.Parse()

	full := spatialtf.Stars(*maxSize, *seed)
	sizes := []int{}
	for n := 25; n < *maxSize; n *= 10 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, *maxSize)

	fmt.Println("star catalogue self-join scaling (ANYINTERACT)")
	fmt.Printf("%-10s %-10s %-14s %-14s %-14s\n", "stars", "pairs", "nested loop", "index join", fmt.Sprintf("parallel(%d)", *workers))
	for _, n := range sizes {
		db := spatialtf.Open()
		subset := spatialtf.Dataset{Name: "stars", Geoms: full.Geoms[:n], Bounds: full.Bounds}
		if _, err := db.LoadDataset("stars", subset); err != nil {
			log.Fatal(err)
		}
		if _, err := db.CreateIndex("stars_idx", "stars", spatialtf.RTree, spatialtf.IndexOptions{}); err != nil {
			log.Fatal(err)
		}

		t0 := time.Now()
		nl, err := db.NestedLoopJoin("stars", "stars_idx", "stars", "stars_idx", spatialtf.JoinOptions{})
		if err != nil {
			log.Fatal(err)
		}
		nlTime := time.Since(t0)

		t0 = time.Now()
		cur, err := db.SpatialJoin("stars", "stars_idx", "stars", "stars_idx", spatialtf.JoinOptions{})
		if err != nil {
			log.Fatal(err)
		}
		ij, err := cur.Collect()
		if err != nil {
			log.Fatal(err)
		}
		ijTime := time.Since(t0)

		t0 = time.Now()
		pcur, err := db.SpatialJoin("stars", "stars_idx", "stars", "stars_idx",
			spatialtf.JoinOptions{Parallel: *workers})
		if err != nil {
			log.Fatal(err)
		}
		pj, err := pcur.Collect()
		if err != nil {
			log.Fatal(err)
		}
		pjTime := time.Since(t0)

		if len(nl) != len(ij) || len(ij) != len(pj) {
			log.Fatalf("n=%d: strategies disagree (%d, %d, %d pairs)", n, len(nl), len(ij), len(pj))
		}
		fmt.Printf("%-10d %-10d %-14s %-14s %-14s\n", n, len(ij),
			nlTime.Round(time.Microsecond), ijTime.Round(time.Microsecond), pjTime.Round(time.Microsecond))
	}
	fmt.Println("\n(on single-core hosts the parallel column cannot beat wall-clock)")
}
