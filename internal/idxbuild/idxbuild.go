// Package idxbuild implements the paper's §5: parallel spatial index
// creation via parallel table functions.
//
// Quadtree creation follows Figure 2 exactly:
//
//	geometry table → table-fn partitioning → N tessellators → index table
//
// The geometry table's scan cursor is partitioned across N instances of
// a tessellation table function; each instance tessellates its
// geometries into tiles and emits (tile code, rowid) index rows; the
// B-tree over the codes is then built with the parallel clause
// (btree.ParallelBulkLoad).
//
// R-tree creation uses parallel table functions "(1) to load the
// geometry data and compute minimum bounding rectangles, and (2) to
// cluster subtrees in parallel" — an MBR-loader table function fans out
// over the table partition cursors, and the collected (mbr, rowid) items
// go through the parallel subtree build of rtree.ParallelBulkLoad.
package idxbuild

import (
	"fmt"
	"time"

	"spatialtf/internal/btree"
	"spatialtf/internal/geom"
	"spatialtf/internal/quadtree"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
)

// Stats reports what a build did, phase by phase; the Table 3 bench
// prints the totals.
type Stats struct {
	Rows       int           // geometry rows read
	Entries    int           // index entries produced (tiles or MBRs)
	Workers    int           // degree of parallelism used
	LoadPhase  time.Duration // tessellation / MBR-computation phase
	BuildPhase time.Duration // B-tree build / subtree clustering+merge
	Total      time.Duration
}

// --- Quadtree creation (Figure 2) ---

// tessellateFn is the tessellation table function: it consumes geometry
// rows from its input partition cursor, a batch at a time, and produces
// index rows (tile code, rowid). One instance runs per partition; its
// input rows end in their rowid (tablefunc.PartitionTable).
type tessellateFn struct {
	input   storage.Cursor
	geomCol int
	grid    quadtree.Grid

	// in is the input batch being read; pending holds the tiles of the
	// rows read but not yet fetched — the pipelining state between
	// fetch calls.
	in      storage.Batch
	pending []tileRef
	done    int
}

// tileRef is one index-table row before it is written: a tile code and
// the rowid of the geometry it covers.
type tileRef struct {
	tile quadtree.Tile
	id   storage.Value
}

func (f *tessellateFn) Start() error { return nil }

func (f *tessellateFn) Fetch(b *storage.Batch, max int) error {
	for n := 0; n < max; {
		if k := min(len(f.pending)-f.done, max-n); k > 0 {
			for i, row := range b.Extend(k, 2) {
				t := f.pending[f.done+i]
				row[0], row[1] = storage.Int(int64(t.tile)), t.id
			}
			f.done += k
			n += k
			continue
		}
		f.pending, f.done = f.pending[:0], 0
		f.in.Reset()
		if err := f.input.NextBatch(&f.in, 0); err != nil || len(f.in.Rows) == 0 {
			return err
		}
		for _, row := range f.in.Rows {
			id := row[len(row)-1]
			tiles, err := quadtree.Tessellate(f.grid, row[f.geomCol].G)
			if err != nil {
				return fmt.Errorf("idxbuild: tessellate row %v: %w", id, err)
			}
			for _, t := range tiles {
				f.pending = append(f.pending, tileRef{tile: t, id: id})
			}
		}
	}
	return nil
}

func (f *tessellateFn) Close() error { return f.input.Close() }

// CreateQuadtree builds a linear quadtree index on tab's geometry column
// with the given degree of parallelism, returning the index and build
// statistics.
func CreateQuadtree(tab *storage.Table, column string, grid quadtree.Grid, workers int) (*quadtree.Index, Stats, error) {
	workers = max(workers, 1)
	col, err := tab.ColumnIndex(column)
	if err != nil {
		return nil, Stats{}, err
	}

	// Step 1 (parallel): tessellate geometries into tiles — the table
	// function with a partitioned input cursor.
	factory := func(instance int, input storage.Cursor) (tablefunc.TableFunction, error) {
		return &tessellateFn{input: input, geomCol: col, grid: grid}, nil
	}
	var entries []btree.Entry
	load, err := runPhase(tablefunc.PartitionTable(tab, workers), factory, func(rows []storage.Row) error {
		for _, row := range rows {
			entries = append(entries, btree.Entry{Key: quadtree.Key(quadtree.Tile(row[0].I), row[1].RowID())})
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}

	// Step 2 (parallel): build the B-tree on the tile codes.
	t0 := time.Now()
	idx := quadtree.NewIndexFromEntries(grid, entries, workers)
	return idx, buildStats(tab, len(entries), workers, load, time.Since(t0)), nil
}

// runPhase runs a build's table-function phase on goroutines through
// tablefunc.Parallel, the instances of factory over parts with every
// fetch's rows handed to sink, and returns its wall-clock time.
func runPhase(parts []storage.Cursor, factory tablefunc.Factory, sink func(rows []storage.Row) error) (time.Duration, error) {
	t0 := time.Now()
	out := tablefunc.Parallel(parts, factory, 0)
	defer out.Close()
	var b storage.Batch
	for {
		b.Reset()
		if err := out.NextBatch(&b, 0); err != nil {
			return 0, err
		}
		if len(b.Rows) == 0 {
			return time.Since(t0), nil
		}
		if err := sink(b.Rows); err != nil {
			return 0, err
		}
	}
}

// buildStats assembles a build's statistics from its two phase times.
func buildStats(tab *storage.Table, entries, workers int, load, build time.Duration) Stats {
	return Stats{
		Rows:       tab.Len(),
		Entries:    entries,
		Workers:    workers,
		LoadPhase:  load,
		BuildPhase: build,
		Total:      load + build,
	}
}

// --- R-tree creation ---

// mbrLoadFn is the MBR-computation table function: it consumes geometry
// rows, a batch at a time, and emits (mbr, rowid) rows. Its input rows
// end in their rowid (tablefunc.PartitionTable).
type mbrLoadFn struct {
	input   storage.Cursor
	geomCol int
	in      storage.Batch
}

func (f *mbrLoadFn) Start() error { return nil }

func (f *mbrLoadFn) Fetch(b *storage.Batch, max int) error {
	f.in.Reset()
	if err := f.input.NextBatch(&f.in, max); err != nil {
		return err
	}
	for _, row := range f.in.Rows {
		id := row[len(row)-1]
		m := geom.MBROf(row[f.geomCol].G)
		if !m.Valid() {
			return fmt.Errorf("idxbuild: row %v has invalid MBR", id)
		}
		out := b.Extend(1, 5)[0]
		out[0], out[1], out[2], out[3] = storage.Float(m.MinX), storage.Float(m.MinY), storage.Float(m.MaxX), storage.Float(m.MaxY)
		out[4] = id
	}
	return nil
}

func (f *mbrLoadFn) Close() error { return f.input.Close() }

// mbrRowItem decodes an (mbr, rowid) row into an R-tree item.
func mbrRowItem(row storage.Row) rtree.Item {
	return rtree.Item{
		MBR: geom.MBR{MinX: row[0].F, MinY: row[1].F, MaxX: row[2].F, MaxY: row[3].F},
		ID:  row[4].RowID(),
	}
}

// CreateRtree builds an R-tree index on tab's geometry column with the
// given node fanout (0 = default) and degree of parallelism.
func CreateRtree(tab *storage.Table, column string, fanout, workers int) (*rtree.Tree, Stats, error) {
	workers = max(workers, 1)
	col, err := tab.ColumnIndex(column)
	if err != nil {
		return nil, Stats{}, err
	}

	// Step 1 (parallel): load geometries and compute MBRs.
	factory := func(instance int, input storage.Cursor) (tablefunc.TableFunction, error) {
		return &mbrLoadFn{input: input, geomCol: col}, nil
	}
	var items []rtree.Item
	load, err := runPhase(tablefunc.PartitionTable(tab, workers), factory, func(rows []storage.Row) error {
		for _, row := range rows {
			items = append(items, mbrRowItem(row))
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}

	// Step 2 (parallel): cluster subtrees in parallel and merge.
	t0 := time.Now()
	tree := rtree.ParallelBulkLoad(items, fanout, workers)
	return tree, buildStats(tab, len(items), workers, load, time.Since(t0)), nil
}
