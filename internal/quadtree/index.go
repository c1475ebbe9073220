package quadtree

import (
	"encoding/binary"
	"fmt"

	"spatialtf/internal/btree"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// Index is a linear quadtree index over the geometry column of a table:
// a B-tree whose keys are (tile code, rowid) pairs. It is the Go
// rendering of Oracle Spatial's quadtree "spatial index table" plus the
// B-tree built on the tile codes.
type Index struct {
	grid Grid
	bt   *btree.Tree
	// tilesPerRow tracks the tessellation size for stats; keyed storage
	// keeps the authoritative data.
	entryCount int
}

// Key builds the B-tree key for (tile, rowid): 8-byte big-endian tile
// code followed by the 6-byte rowid, so keys group by tile and range
// scans by tile prefix find all rows touching the tile.
func Key(t Tile, id storage.RowID) []byte {
	return id.AppendTo(binary.BigEndian.AppendUint64(make([]byte, 0, 14), uint64(t)))
}

// splitKey parses a key back into (tile, rowid).
func splitKey(k []byte) (Tile, storage.RowID, error) {
	if len(k) != 14 {
		return 0, storage.InvalidRowID, fmt.Errorf("quadtree: bad key length %d", len(k))
	}
	id, err := storage.RowIDFromBytes(k[8:])
	if err != nil {
		return 0, storage.InvalidRowID, err
	}
	return Tile(binary.BigEndian.Uint64(k[:8])), id, nil
}

// tilePrefix returns the 8-byte prefix for a tile's key range.
func tilePrefix(t Tile) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(t))
	return buf[:]
}

// NewIndex returns an empty index on the given grid.
func NewIndex(grid Grid) *Index {
	return &Index{grid: grid, bt: btree.New()}
}

// NewIndexFromEntries builds an index from pre-tessellated entries via
// the (optionally parallel) B-tree bulk loader. The parallel index
// builder produces the entries with a parallel table function and hands
// them here, mirroring the paper's two-step quadtree creation.
func NewIndexFromEntries(grid Grid, entries []btree.Entry, workers int) *Index {
	idx := &Index{grid: grid}
	idx.bt = btree.ParallelBulkLoad(entries, workers)
	idx.entryCount = idx.bt.Len()
	return idx
}

// Grid returns the tiling parameters.
func (idx *Index) Grid() Grid { return idx.grid }

// EntryCount returns the number of (tile, rowid) index entries — the
// size of the quadtree index table.
func (idx *Index) EntryCount() int { return idx.bt.Len() }

// InsertGeometry indexes one row — the index-maintenance path run by
// DML on an indexed table.
func (idx *Index) InsertGeometry(id storage.RowID, g geom.Geometry) error {
	tiles, err := Tessellate(idx.grid, g)
	if err != nil {
		return err
	}
	for _, t := range tiles {
		idx.bt.Insert(Key(t, id), nil)
	}
	return nil
}

// DeleteGeometry removes the index entries for one row.
func (idx *Index) DeleteGeometry(id storage.RowID, g geom.Geometry) error {
	tiles, err := Tessellate(idx.grid, g)
	if err != nil {
		return err
	}
	for _, t := range tiles {
		if err := idx.bt.Delete(Key(t, id)); err != nil {
			return fmt.Errorf("quadtree: delete tile %d of %v: %w", t, id, err)
		}
	}
	return nil
}

// WindowCandidates returns the distinct rowids whose tile sets intersect
// the window's tile cover — the primary filter of a quadtree window
// query. Callers apply the exact (secondary) geometry predicate to the
// candidates.
func (idx *Index) WindowCandidates(w geom.MBR) []storage.RowID {
	seen := map[storage.RowID]bool{}
	var out []storage.RowID
	for _, t := range CoverWindow(idx.grid, w) {
		idx.bt.AscendPrefix(tilePrefix(t), func(k, v []byte) bool {
			_, id, err := splitKey(k)
			if err == nil && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
			return true
		})
	}
	return out
}
