package sjoin

import (
	"fmt"
	"math"
	"slices"
	"time"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
	"spatialtf/internal/telemetry"
)

// JoinFunction is the spatial_join pipelined table function of §4.2. Its state
// across fetch calls is:
//
//   - a stack of R-tree node pairs still to be traversed (seeded in the
//     start method with the subtree-root pairs passed in), and
//   - the bounded candidate array filled by the index (primary) filter
//     and drained by the geometry (secondary) filter.
//
// Each fetch call resumes the traversal from the stack, refilling the
// candidate array as it empties, evaluating candidates exactly, and
// returning up to the requested number of result rowid pairs. When the
// stack and array are empty the fetch returns an empty collection and
// the subsequent close releases resources.
type JoinFunction struct {
	cfg Config

	// Operand tables for the secondary filter.
	tabA, tabB *storage.Table
	colA, colB int

	// Decoded-geometry cache consulted by the secondary filter (nil when
	// disabled). Shared across instances when Config.GeomCache is set.
	cache *GeomCache

	// Roots to traverse: the single (rootA, rootB) pair for the serial
	// join, or this instance's share of the subtree-pair cross product
	// for the parallel join.
	roots []nodePair

	// Traversal stack.
	stack []nodePair

	// Candidate array (primary-filter output awaiting exact check).
	cands []Pair

	// Verified results not yet returned by fetch.
	ready []Pair

	// Plane-sweep scratch: the two entry lists of the current node pair,
	// sorted by low x. Reused across node pairs to avoid allocation.
	sweepA, sweepB []sweepEntry

	// Statistics, reported through JoinStats.
	stats JoinStats

	// Shared telemetry (nil when disabled): instr receives counter
	// deltas and stage latencies, trace is the per-query span sink,
	// flushed remembers what stats already reached instr.
	instr   *Instruments
	trace   *telemetry.Trace
	flushed JoinStats

	// Sampled geometry-fetch spans, pending until flushGeomSpans: gfSeq
	// picks the 1-in-16 sample, gfPending counts every fetch exactly,
	// gfNanos holds the scaled sampled duration. Plain ints — only this
	// instance touches them.
	gfSeq     int64
	gfPending int64
	gfNanos   int64
}

// nodePair is one unit of synchronized traversal.
type nodePair struct {
	a, b rtree.NodeRef
}

// sweepEntry is one node slot in plane-sweep order: its rectangle plus
// the slot index it came from (to recover rowids/children after the
// sort permutes the list).
type sweepEntry struct {
	xlo, xhi, ylo, yhi float64
	idx                int32
}

// JoinStats counts the work a join did; benches report them.
type JoinStats struct {
	// NodePairsVisited counts stack pops (index-level work).
	NodePairsVisited int
	// NodeAccesses counts index node reads — the logical "buffer gets"
	// a disk-resident execution would issue against the index segments.
	// The synchronized tree join reads the two nodes of each visited
	// pair; the nested loop re-descends the inner index per outer row.
	NodeAccesses int
	// Candidates counts primary-filter survivors.
	Candidates int
	// Results counts exact-predicate survivors.
	Results int
	// GeomFetches counts base-table geometry fetches in the secondary
	// filter (cache hits on the sorted outer side avoid fetches).
	GeomFetches int
	// FastAccepts counts pairs proven intersecting from interior
	// approximations alone, skipping the secondary filter entirely.
	FastAccepts int
	// CacheHits / CacheMisses count decoded-geometry cache lookups by
	// the secondary filter (both zero when the cache is disabled).
	CacheHits   int
	CacheMisses int
	// TilesSwept counts grid tiles swept by the grid-partitioned path
	// (zero on the R-tree paths).
	TilesSwept int
}

// add accumulates another instance's counters (simulators and parallel
// aggregation).
func (s *JoinStats) add(o JoinStats) {
	s.NodePairsVisited += o.NodePairsVisited
	s.NodeAccesses += o.NodeAccesses
	s.Candidates += o.Candidates
	s.Results += o.Results
	s.GeomFetches += o.GeomFetches
	s.FastAccepts += o.FastAccepts
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.TilesSwept += o.TilesSwept
}

// newJoinFn builds the function for the given root pairs.
func newJoinFn(a, b Source, cfg Config, roots []nodePair) (*JoinFunction, error) {
	colA, err := a.geomColumn()
	if err != nil {
		return nil, err
	}
	colB, err := b.geomColumn()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &JoinFunction{
		cfg:   cfg,
		tabA:  a.Table,
		tabB:  b.Table,
		colA:  colA,
		colB:  colB,
		cache: cfg.resolveCache(),
		roots: roots,
		instr: cfg.Instr,
		trace: cfg.Trace,
	}, nil
}

// Start implements TableFunction: "the metadata of the two R-tree
// indexes ... is loaded and the subtree roots ... are pushed onto a
// stack".
func (j *JoinFunction) Start() error {
	j.stack = append(j.stack[:0], j.roots...)
	return nil
}

// Fetch implements TableFunction: resume the join from the stack and
// append up to max result pairs to b.
func (j *JoinFunction) Fetch(b *storage.Batch, max int) error {
	for n := 0; n < max; {
		// Drain verified results first.
		if k := min(len(j.ready), max-n); k > 0 {
			//spatiallint:ignore hotalloc grows a fresh batch to the fetch size; a reused one has the room
			appendPairRows(b, j.ready[:k])
			j.ready = j.ready[k:]
			n += k
			continue
		}
		// Refill the candidate array by resuming the index traversal.
		if len(j.stack) > 0 {
			//spatiallint:ignore hotalloc span closure only allocates when a telemetry sink is attached, once per refill not per row
			end := j.span(telemetry.StagePrimary)
			j.fillCandidates()
			end()
		}
		if len(j.cands) == 0 {
			break // stack empty and no candidates: join complete
		}
		if err := j.secondaryFilter(); err != nil {
			return err
		}
	}
	j.flushStats()
	return nil
}

// flushGeomSpans moves the pending sampled geometry-fetch spans to the
// shared trace (one pair of atomic adds per drain, not per fetch).
func (j *JoinFunction) flushGeomSpans() {
	if j.gfPending == 0 {
		return
	}
	j.trace.Add(telemetry.StageGeomFetch, time.Duration(j.gfNanos), j.gfPending)
	j.gfPending, j.gfNanos = 0, 0
}

// Close implements TableFunction.
func (j *JoinFunction) Close() error {
	j.flushGeomSpans()
	j.flushStats()
	j.stack = nil
	j.cands = nil
	j.ready = nil
	j.sweepA = nil
	j.sweepB = nil
	return nil
}

// Stats returns the accumulated work counters.
func (j *JoinFunction) Stats() JoinStats { return j.stats }

// fillCandidates runs the synchronized R-tree traversal until the
// candidate array reaches capacity or the stack empties — the primary
// (index MBR) filter. Equal-height node pairs are intersected either by
// a forward plane sweep over xlo-sorted entry lists (default, O(n log n
// + output) instead of the O(n·m) nested scan) or by the nested scan
// when the pair is small or Config.NestedPrimaryFilter is set.
func (j *JoinFunction) fillCandidates() {
	for len(j.stack) > 0 && len(j.cands) < j.cfg.CandidateCap {
		top := j.stack[len(j.stack)-1]
		j.stack = j.stack[:len(j.stack)-1]
		j.stats.NodePairsVisited++
		j.stats.NodeAccesses += 2
		a, b := top.a, top.b
		fastAccept := j.cfg.UseInteriorApprox && j.cfg.Distance == 0 && j.cfg.Mask == geom.MaskAnyInteract
		switch {
		case a.IsLeaf() && b.IsLeaf():
			if j.useSweep(a, b) {
				j.sweepPair(a, b, func(ai, bi int) { j.emitLeafPair(a, b, ai, bi, fastAccept) })
			} else {
				for i := 0; i < a.NumEntries(); i++ {
					ma := a.EntryMBR(i)
					for k := 0; k < b.NumEntries(); k++ {
						if j.cfg.primaryAccepts(ma, b.EntryMBR(k)) {
							j.emitLeafPair(a, b, i, k, fastAccept)
						}
					}
				}
			}
		case !a.IsLeaf() && !b.IsLeaf():
			// Descend both sides, pairing children whose MBRs interact.
			if j.useSweep(a, b) {
				j.sweepPair(a, b, func(ai, bi int) {
					j.stack = append(j.stack, nodePair{a.Child(ai), b.Child(bi)})
				})
			} else {
				for i := 0; i < a.NumEntries(); i++ {
					ma := a.EntryMBR(i)
					for k := 0; k < b.NumEntries(); k++ {
						if j.cfg.primaryAccepts(ma, b.EntryMBR(k)) {
							j.stack = append(j.stack, nodePair{a.Child(i), b.Child(k)})
						}
					}
				}
			}
		case a.IsLeaf():
			// Unequal heights: descend only the taller (b) side.
			for k := 0; k < b.NumEntries(); k++ {
				if j.cfg.primaryAccepts(a.MBR(), b.EntryMBR(k)) {
					j.stack = append(j.stack, nodePair{a, b.Child(k)})
				}
			}
		default:
			for i := 0; i < a.NumEntries(); i++ {
				if j.cfg.primaryAccepts(a.EntryMBR(i), b.MBR()) {
					j.stack = append(j.stack, nodePair{a.Child(i), b})
				}
			}
		}
	}
}

// emitLeafPair routes one primary-filter survivor from a leaf×leaf node
// pair: fast-accepted into the ready queue when the interior
// approximations prove intersection, otherwise into the candidate array
// for the secondary filter.
func (j *JoinFunction) emitLeafPair(a, b rtree.NodeRef, ai, bi int, fastAccept bool) {
	if fastAccept {
		ia := a.EntryInterior(ai)
		ib := b.EntryInterior(bi)
		// Interior rectangles are subsets of the exact geometries, so
		// any of these conditions proves intersection without a
		// geometry fetch.
		if (ia.Area() > 0 && ib.Area() > 0 && ia.Intersects(ib)) ||
			(ia.Area() > 0 && ia.Contains(b.EntryMBR(bi))) ||
			(ib.Area() > 0 && ib.Contains(a.EntryMBR(ai))) {
			j.ready = append(j.ready, Pair{A: a.EntryID(ai), B: b.EntryID(bi)})
			j.stats.Results++
			j.stats.FastAccepts++
			return
		}
	}
	j.cands = append(j.cands, Pair{A: a.EntryID(ai), B: b.EntryID(bi)})
	j.stats.Candidates++
}

// useSweep decides the intersection algorithm for an equal-height node
// pair: plane sweep unless disabled or the pair is too small to
// amortise the two sorts.
func (j *JoinFunction) useSweep(a, b rtree.NodeRef) bool {
	if j.cfg.NestedPrimaryFilter {
		return false
	}
	return a.NumEntries()+b.NumEntries() >= j.cfg.SweepThreshold
}

// sweepPair runs a forward plane sweep over the entries of nodes a and
// b, calling emit(ai, bi) once for every entry pair accepted by the
// primary filter — the same pair set, in a different order, as the
// nested scan. Both entry lists are copied into the reusable scratch
// slices and sorted on low x; the sweep then advances through the two
// lists in xlo order, and for each entry scans forward in the other
// list while x intervals (expanded by the join distance) overlap,
// checking y overlap per pair. For distance joins the x/y interval
// tests are necessary but not sufficient (corner-to-corner distance
// exceeds either axis gap), so survivors take the exact MBR-distance
// check before emission.
func (j *JoinFunction) sweepPair(a, b rtree.NodeRef, emit func(ai, bi int)) {
	j.sweepA = fillSweep(j.sweepA, a)
	j.sweepB = fillSweep(j.sweepB, b)
	d := j.cfg.Distance
	ea, eb := j.sweepA, j.sweepB
	i, k := 0, 0
	for i < len(ea) && k < len(eb) {
		if ea[i].xlo <= eb[k].xlo {
			e := ea[i]
			xmax := e.xhi + d
			ylo, yhi := e.ylo-d, e.yhi+d
			for kk := k; kk < len(eb) && eb[kk].xlo <= xmax; kk++ {
				o := eb[kk]
				if o.ylo > yhi || o.yhi < ylo {
					continue
				}
				if d > 0 && !sweepDistOK(e, o, d) {
					continue
				}
				emit(int(e.idx), int(o.idx))
			}
			i++
		} else {
			e := eb[k]
			xmax := e.xhi + d
			ylo, yhi := e.ylo-d, e.yhi+d
			for ii := i; ii < len(ea) && ea[ii].xlo <= xmax; ii++ {
				o := ea[ii]
				if o.ylo > yhi || o.yhi < ylo {
					continue
				}
				if d > 0 && !sweepDistOK(o, e, d) {
					continue
				}
				emit(int(o.idx), int(e.idx))
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
		dst = append(dst, sweepEntry{xlo: xlo[i], xhi: xhi[i], ylo: ylo[i], yhi: yhi[i], idx: int32(i)})
	}
	slices.SortFunc(dst, func(a, b sweepEntry) int {
		switch {
		case a.xlo < b.xlo:
			return -1
		case a.xlo > b.xlo:
			return 1
		default:
			return 0
		}
	})
	return dst
}

// sweepDistOK is the exact distance-join acceptance on sweep entries:
// the rectangle distance (diagonal across both axis gaps, matching
// geom.MBR.Dist) is within d.
func sweepDistOK(a, b sweepEntry, d float64) bool {
	dx := math.Max(0, math.Max(b.xlo-a.xhi, a.xlo-b.xhi))
	dy := math.Max(0, math.Max(b.ylo-a.yhi, a.ylo-b.yhi))
	if dx == 0 {
		return dy <= d
	}
	if dy == 0 {
		return dx <= d
	}
	return math.Hypot(dx, dy) <= d
}

// secondaryFilter drains the candidate array: fetch exact geometries and
// keep pairs satisfying the exact predicate. Per §4.2 the candidates are
// sorted on the first rowid before fetching (Shekhar et al. show optimal
// fetch order is NP-complete and rowid-sort is within ~20% of the best
// approximations); sorting also lets consecutive candidates sharing the
// first rowid reuse one fetched geometry. Fetches on both sides go
// through the decoded-geometry cache, so repeated rowids — across
// candidate batches, join sides of a self-join, or parallel instances
// sharing a cache — skip the base-table decode entirely.
func (j *JoinFunction) secondaryFilter() error {
	if j.cfg.SortCandidates {
		//spatiallint:ignore hotalloc span closure only allocates when a telemetry sink is attached, once per sort not per row
		end := j.span(telemetry.StageSort)
		slices.SortFunc(j.cands, comparePairs)
		end()
	}
	//spatiallint:ignore hotalloc span closure only allocates when a telemetry sink is attached, once per drain not per row
	endDrain := j.span(telemetry.StageSecondary)
	defer func() {
		j.flushGeomSpans()
		endDrain()
	}()
	var (
		curID   storage.RowID
		curGeom geom.Geometry
		haveCur bool
	)
	for _, p := range j.cands {
		if !haveCur || curID != p.A {
			g, err := j.fetchGeom(j.tabA, j.colA, p.A)
			if err != nil {
				return err
			}
			curID, curGeom, haveCur = p.A, g, true
		}
		gb, err := j.fetchGeom(j.tabB, j.colB, p.B)
		if err != nil {
			return err
		}
		//spatiallint:ignore hotalloc Relate visited-ring scratch only runs on the exact-mask predicate, bounded by parts per geometry
		if j.cfg.secondaryAccepts(curGeom, gb) {
			j.ready = append(j.ready, p)
			j.stats.Results++
		}
	}
	j.cands = j.cands[:0]
	return nil
}

// geomSampleMask times one geometry fetch in 16 and scales the sampled
// duration up: per-fetch clock reads are the one per-candidate cost, so
// even a traced query only pays them on the sample.
const geomSampleMask = 15

// fetchGeom resolves one geometry for the secondary filter through the
// cache, maintaining the fetch and cache counters. When a per-query
// trace is attached, fetches are counted exactly but timed by sampling:
// the pending totals sit in plain per-instance fields and reach the
// shared trace through flushGeomSpans once per drain.
func (j *JoinFunction) fetchGeom(tab *storage.Table, col int, id storage.RowID) (geom.Geometry, error) {
	var t0 time.Time
	sampled := false
	if j.trace != nil {
		sampled = j.gfSeq&geomSampleMask == 0
		j.gfSeq++
		j.gfPending++
		if sampled {
			t0 = time.Now()
		}
	}
	//spatiallint:ignore hotalloc a cache miss must decode and retain the geometry; hits are allocation-free
	g, hit, err := cachedFetch(j.cache, tab, col, id)
	if sampled {
		j.gfNanos += int64(time.Since(t0)) * (geomSampleMask + 1)
	}
	if err != nil {
		return geom.Geometry{}, fmt.Errorf("sjoin: fetch %v from %q: %w", id, tab.Name(), err)
	}
	if hit {
		j.stats.CacheHits++
		return g, nil
	}
	j.stats.GeomFetches++
	if j.cache != nil {
		j.stats.CacheMisses++
	}
	return g, nil
}

// IndexJoin evaluates the spatial join of a and b through a single
// pipelined spatial_join table function — the §4 formulation
//
//	select rid1, rid2 from TABLE(spatial_join(tabA, colA, tabB, colB, mask))
//
// The returned cursor streams (rid1, rid2) rows; decode with
// PairFromRow or drain with CollectPairs.
func IndexJoin(a, b Source, cfg Config) (storage.Cursor, error) {
	fn, err := NewJoinFunction(a, b, cfg)
	if err != nil {
		return nil, err
	}
	return tablefunc.Pipeline(tablefunc.Traced(fn, cfg.Trace), cfg.FetchBatch), nil
}

// RunJoinFunction drives a join function to completion and returns the
// result-pair count and the work counters — the evaluation loop of a
// "select count(*)" over the table function, used by the benchmarks.
func RunJoinFunction(fn *JoinFunction, batch int) (int, JoinStats, error) {
	if batch <= 0 {
		batch = tablefunc.DefaultBatch
	}
	if err := fn.Start(); err != nil {
		return 0, fn.Stats(), err
	}
	defer fn.Close()
	count := 0
	var b storage.Batch
	for {
		b.Reset()
		if err := fn.Fetch(&b, batch); err != nil {
			return count, fn.Stats(), err
		}
		if len(b.Rows) == 0 {
			return count, fn.Stats(), nil
		}
		count += len(b.Rows)
	}
}

// NewJoinFunction returns the spatial_join table function joining the
// roots of both indexes, for callers that drive start-fetch-close
// directly (the facade and tests).
func NewJoinFunction(a, b Source, cfg Config) (*JoinFunction, error) {
	var roots []nodePair
	if a.Tree.Len() > 0 && b.Tree.Len() > 0 {
		roots = []nodePair{{a.Tree.Root(), b.Tree.Root()}}
	}
	return newJoinFn(a, b, cfg, roots)
}
