package extidx

import (
	"fmt"
	"slices"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/storage"
)

// This file is the one path of a window statement — sdo_relate or
// sdo_within_distance — from the index to the result rows (DESIGN.md
// §19, §21). One index pass hands out each candidate with its leaf MBR,
// and the join's route table (sjoin.Window) settles it there: dropped,
// proven, or to be refined. Each kept row is then fetched once, for the
// columns the statement returns plus, when it is refined, the geometry
// its exact test reads. Relate and WithinDistance drain it for rowids,
// and the SQL executor streams it a batch at a time.

// Candidate is one row a window's index pass kept. Refine is set when
// its geometry must still be fetched and tested; otherwise the index
// entry proved the row a result.
type Candidate struct {
	ID     storage.RowID
	Refine bool
}

// treeIndex is an index whose leaf entries carry each row's MBR: the
// R-tree. A quadtree's candidates carry none, so each is refined.
type treeIndex interface{ Tree() *rtree.Tree }

// Window runs the one index pass of the window of q under op on
// column of tab, through idx. It returns the candidates the window's
// routes kept, in index order, and the reader that returns columns cols
// of their result rows. owns, when not nil, is a cluster scope's owner
// test of reference points (sjoin.Config.Owns) for rows the cluster
// places by their geometry in column ownCol: it runs on the leaf MBR
// when the index has one and indexes that column, and on the fetched
// row otherwise.
func Window(idx SpatialIndex, tab *storage.Table, column string, q geom.Geometry, op sjoin.WindowOp, cols []int, owns func(x, y float64) bool, ownCol int) ([]Candidate, *Rows, error) {
	col, err := tab.ColumnIndex(column)
	if err != nil {
		return nil, nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, nil, fmt.Errorf("extidx: window query geometry: %w", err)
	}
	if op.Distance < 0 {
		return nil, nil, fmt.Errorf("extidx: negative distance %g", op.Distance)
	}
	tree, leaves := idx.(treeIndex)
	leafOwner := leaves && ownCol == col
	r := &Rows{tab: tab, route: sjoin.NewWindow(q, op, owns, leafOwner),
		cols: cols[:len(cols):len(cols)], nout: len(cols), opos: -1}
	if owns != nil && !leafOwner {
		r.opos = len(r.cols)
		r.cols = append(r.cols, ownCol)
	}
	if r.gpos = slices.Index(r.cols, col); r.gpos < 0 {
		r.gpos = len(r.cols)
		r.cols = append(r.cols, col)
	}

	var cands []Candidate
	qm := geom.MBROf(q)
	if !leaves {
		var ids []storage.RowID
		if op.Within {
			ids = idx.DistCandidates(qm, op.Distance)
		} else {
			ids = idx.WindowCandidates(qm)
		}
		cands = make([]Candidate, len(ids))
		for i, id := range ids {
			cands[i] = Candidate{ID: id, Refine: true}
		}
		return cands, r, nil
	}
	visit := func(it rtree.Item) bool {
		if v := r.route.Decide(it.MBR); v != sjoin.Dropped {
			cands = append(cands, Candidate{ID: it.ID, Refine: v == sjoin.Refine})
		}
		return true
	}
	if op.Within {
		tree.Tree().SearchWithinDist(qm, op.Distance, visit)
	} else {
		tree.Tree().Search(qm, visit)
	}
	return cands, r, nil
}

// Rows reads the result rows of a statement's candidates, one fetch
// per row at most.
type Rows struct {
	tab   *storage.Table
	route *sjoin.Window // nil: every candidate is proven
	// cols are what a fetch decodes: the caller's nout columns, then the
	// owner test's column at opos (-1 when the test is not run on the
	// fetched row), then the exact test's geometry column, unless one of
	// those slots holds it already; gpos is where it is.
	cols             []int
	nout, opos, gpos int
}

// ProvenRows returns the reader that returns columns cols of candidates
// an operator has already decided (sdo_nn's ranked neighbours).
func ProvenRows(tab *storage.Table, cols []int) *Rows {
	return &Rows{tab: tab, cols: cols, nout: len(cols), opos: -1}
}

// Width is the number of slots a row passed to Fetch must have.
func (r *Rows) Width() int { return len(r.cols) }

// Fetch reads candidate c into row, which has Width() slots, and
// reports whether it is a result: its row is still there, the scope
// owns it, and a refined candidate passes the exact test. The result's
// columns are then row[:len(cols)], decoded from the one read of the
// row that tested it; the slots past them, and a row that is not a
// result, are cleared. A proven candidate that wants no column and no
// owner test is not fetched.
func (r *Rows) Fetch(c Candidate, row storage.Row) (bool, error) {
	n := r.nout
	switch {
	case c.Refine:
		n = len(r.cols)
	case r.opos >= 0:
		n = r.opos + 1
	}
	if n == 0 {
		return true, nil
	}
	ok, err := r.tab.FetchColumns(c.ID, r.cols[:n], row[:n])
	if ok && r.opos >= 0 {
		ok = r.route.Owns(geom.MBROf(row[r.opos].G))
	}
	if ok && c.Refine {
		ok = r.route.Accepts(row[r.gpos].G)
	}
	if ok {
		clear(row[r.nout:n])
	} else {
		clear(row[:n])
	}
	return ok, err
}

// IDs returns the rowids of the candidates that are results, in order.
func (r *Rows) IDs(cands []Candidate) ([]storage.RowID, error) {
	row := make(storage.Row, r.Width())
	var out []storage.RowID
	for _, c := range cands {
		ok, err := r.Fetch(c, row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, c.ID)
		}
	}
	return out, nil
}
