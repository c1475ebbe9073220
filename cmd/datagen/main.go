// Command datagen emits a synthetic dataset as one WKT geometry per
// line, for inspection or for loading into other tools.
//
// Usage:
//
//	datagen -dataset counties -n 3230 -seed 1 > counties.wkt
//	datagen -dataset stars -n 1000 -stats
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
)

func main() {
	var (
		name  = flag.String("dataset", "counties", "dataset: counties, stars or blockgroups")
		n     = flag.Int("n", 100, "number of geometries")
		seed  = flag.Int64("seed", 1, "generator seed")
		stats = flag.Bool("stats", false, "print summary statistics instead of WKT")
	)
	flag.Parse()

	ds, err := datagen.ByName(*name, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(2)
	}

	if *stats {
		totalArea := 0.0
		maxV, minV := 0, 1<<31
		for _, g := range ds.Geoms {
			totalArea += g.Area()
			v := g.NumVertices()
			if v > maxV {
				maxV = v
			}
			if v < minV {
				minV = v
			}
		}
		fmt.Printf("dataset:        %s\n", ds.Name)
		fmt.Printf("geometries:     %d\n", len(ds.Geoms))
		fmt.Printf("total vertices: %d (min %d, max %d per geometry)\n", ds.TotalVertices(), minV, maxV)
		fmt.Printf("total area:     %.1f (%.2f%% of the world)\n", totalArea, 100*totalArea/ds.Bounds.Area())
		fmt.Printf("bounds:         %v\n", ds.Bounds)
		return
	}

	w := bufio.NewWriter(os.Stdout)
	for _, g := range ds.Geoms {
		fmt.Fprintln(w, geom.MarshalWKT(g))
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}
