package sjoin

import (
	"math"
	"slices"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
)

// This file is the primary filter's one intersection step: a forward
// plane sweep over two xlo-sorted entry lists (O(n log n + output)
// instead of the O(n·m) nested scan). The R-tree traversal sweeps the
// entries of each equal-height node pair (fillSweep), the grid join the
// two entry lists of each tile; both hand the kernel the same entry
// type and read the same pair set out of it.

// sweepEntry is one rectangle in plane-sweep order. A node's entry
// carries the slot index it came from, to recover its rowid or child
// after the sort permutes the list, and classBoth; a grid tile's copy
// carries its rowid and its two-layer class for the tile.
type sweepEntry struct {
	geom.MBR
	id    storage.RowID
	idx   int32
	class uint8
}

// sweepGrow is how far the sweep grows a side of a distance join: d
// plus a rounding margin, so that it never drops a pair mbrsWithin
// accepts. mbrsWithin (like MBR.Dist) tests the gap hi − lo ≤ d; the
// sweep tests the sum lo + grow against hi, and with grow = d the two
// disagree by an ulp where lo + d rounds below hi while hi − lo rounds
// to d. The margin 2⁻⁵⁰·(m + d), m the largest coordinate magnitude of
// the operands' bounds, is over twice what the difference and the sums
// can lose to rounding together, so the sweep's survivors are a
// superset of mbrsWithin's and mbrsWithin keeps the exact set. An intersection join (d = 0) grows
// nothing: its closed-interval tests round nowhere. Computed once per
// join, so the grid places its copies by the same grow it sweeps by.
func sweepGrow(d float64, a, b geom.MBR) float64 {
	if d <= 0 {
		return 0
	}
	m := 0.0
	for _, r := range []geom.MBR{a, b} {
		if !r.IsEmpty() {
			m = max(m, math.Abs(r.MinX), math.Abs(r.MinY), math.Abs(r.MaxX), math.Abs(r.MaxY))
		}
	}
	return d + 0x1p-50*(m+d)
}

// sweep calls emit once for every pair of entries that survives the
// primary filter: x and y intervals overlap with the grow applied, the
// two classes OR to classBoth, and — for a distance join — the exact
// rectangle distance is within d (mbrsWithin). Both lists are in xlo
// order.
//
// In cross mode side A is grown by grow, and emit gets the A entry
// first. In self mode eb is ea, and each entry i is swept against the
// entries k ≥ i (k = i is the entry paired with itself), both grown by
// grow/2, so emit sees each unordered pair once. The grid places its
// copies by these same expressions (assignGrid), so a pair the sweep
// accepts lies in its reporting tile bit for bit.
func sweep(ea, eb []sweepEntry, grow, d float64, self bool, emit func(a, b *sweepEntry)) {
	if self {
		h := grow / 2
		for i := range ea {
			e := &ea[i]
			xmax := e.MaxX + h
			ylo, yhi := e.MinY-h, e.MaxY+h
			for k := i; k < len(ea) && ea[k].MinX-h <= xmax; k++ {
				o := &ea[k]
				if o.MinY-h > yhi || o.MaxY+h < ylo || e.class|o.class != classBoth {
					continue
				}
				if d > 0 && !mbrsWithin(&e.MBR, &o.MBR, d) {
					continue
				}
				emit(e, o)
			}
		}
		return
	}
	i, k := 0, 0
	for i < len(ea) && k < len(eb) {
		if ea[i].MinX-grow <= eb[k].MinX {
			e := &ea[i]
			xmax := e.MaxX + grow
			ylo, yhi := e.MinY-grow, e.MaxY+grow
			for kk := k; kk < len(eb) && eb[kk].MinX <= xmax; kk++ {
				o := &eb[kk]
				if o.MinY > yhi || o.MaxY < ylo || e.class|o.class != classBoth {
					continue
				}
				if d > 0 && !mbrsWithin(&e.MBR, &o.MBR, d) {
					continue
				}
				emit(e, o)
			}
			i++
		} else {
			e := &eb[k]
			for ii := i; ii < len(ea) && ea[ii].MinX-grow <= e.MaxX; ii++ {
				o := &ea[ii]
				if o.MinY-grow > e.MaxY || o.MaxY+grow < e.MinY || e.class|o.class != classBoth {
					continue
				}
				if d > 0 && !mbrsWithin(&o.MBR, &e.MBR, d) {
					continue
				}
				emit(o, e)
			}
			k++
		}
	}
}

// fillSweep copies a node's structure-of-arrays rectangles into the
// scratch list and sorts it by low x for the sweep.
func fillSweep(dst []sweepEntry, r rtree.NodeRef) []sweepEntry {
	xlo, ylo, xhi, yhi := r.EntryRects()
	dst = dst[:0]
	for i := range xlo {
		dst = append(dst, sweepEntry{MBR: geom.MBR{MinX: xlo[i], MinY: ylo[i], MaxX: xhi[i], MaxY: yhi[i]}, idx: int32(i), class: classBoth})
	}
	slices.SortFunc(dst, func(a, b sweepEntry) int {
		switch {
		case a.MinX < b.MinX:
			return -1
		case a.MinX > b.MinX:
			return 1
		default:
			return 0
		}
	})
	return dst
}

// mbrsWithin is the exact distance-join acceptance of the sweep: the
// rectangle distance (diagonal across both axis gaps, matching
// geom.MBR.Dist) is within d. Sweep survivors overlap on at least one
// axis far more often than not, so the zero-gap cases skip the
// hypotenuse.
func mbrsWithin(a, b *geom.MBR, d float64) bool {
	dx := max(0, b.MinX-a.MaxX, a.MinX-b.MaxX)
	dy := max(0, b.MinY-a.MaxY, a.MinY-b.MaxY)
	if dx == 0 {
		return dy <= d
	}
	if dy == 0 {
		return dx <= d
	}
	return math.Hypot(dx, dy) <= d
}
