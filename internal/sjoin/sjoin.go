// Package sjoin implements the paper's primary contribution (§4):
// spatial joins over two R-tree-indexed tables evaluated through
// parallel and pipelined table functions.
//
// There is one spatial_join table function, JoinFunction: the two-stage
// evaluator of §4.2 (bounded candidate array, sorted-fetch secondary
// filter, start-fetch-close). The join algorithms differ only in the
// candidate source that refills its array:
//
//   - IndexJoin — a synchronized traversal of both R-trees from the two
//     roots, pipelined.
//   - ParallelIndexJoin — §4.1: descend both trees to a level, enumerate
//     subtree roots, and run the same traversal on each parallel
//     instance over the subtree pairs it claims off a shared queue.
//   - GridParallelJoin — a uniform tile grid whose tiles the parallel
//     instances claim dynamically and plane-sweep.
//
// NestedLoop — the pre-9i baseline: iterate the first table and run an
// index-assisted spatial query on the second table per row — is kept
// apart from all of that on purpose: it is the reference the others are
// tested against.
//
// Join runs a PlanChoice on its algorithm, and CountJoin is select
// count(*) over it, computed inside the join function (JoinFunction).
package sjoin

import (
	"fmt"
	"slices"
	"strings"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// Pair is one join result: the rowids of the interacting rows in the
// first and second table — the (rid1, rid2) rows returned by the
// spatial_join table function.
type Pair struct {
	A, B storage.RowID
}

// Less orders pairs by (A, B); tests sort results for comparison.
func (p Pair) Less(q Pair) bool {
	if c := p.A.Compare(q.A); c != 0 {
		return c < 0
	}
	return p.B.Less(q.B)
}

// comparePairs is the (A, B) ordering as a slices.SortFunc comparator.
// The concrete comparator avoids the per-call interface indirection of
// sort.Slice on the candidate-sort hot path.
func comparePairs(p, q Pair) int {
	if c := p.A.Compare(q.A); c != 0 {
		return c
	}
	return p.B.Compare(q.B)
}

// Source names one join operand: the base table, its geometry column,
// and the R-tree index on that column.
type Source struct {
	Table  *storage.Table
	Column string
	Tree   *rtree.Tree
}

// geomColumn resolves and type-checks the geometry column.
func (s Source) geomColumn() (int, error) {
	col, err := s.Table.ColumnIndex(s.Column)
	if err != nil {
		return 0, err
	}
	if s.Table.Schema()[col].Type != storage.TGeometry {
		return 0, fmt.Errorf("sjoin: column %q of %q is %v, not GEOMETRY",
			s.Column, s.Table.Name(), s.Table.Schema()[col].Type)
	}
	return col, nil
}

// geomColumns resolves both operands' geometry columns; self reports
// that they are the same column of the same table, read through the
// same index.
func geomColumns(a, b Source) (colA, colB int, self bool, err error) {
	if colA, err = a.geomColumn(); err != nil {
		return 0, 0, false, err
	}
	if colB, err = b.geomColumn(); err != nil {
		return 0, 0, false, err
	}
	return colA, colB, a.Table == b.Table && colA == colB && a.Tree == b.Tree, nil
}

// DefaultCandidateCap bounds the in-memory candidate array of the
// two-stage join — the paper's "size of this array is determined by
// existing memory resources". When the array fills, the primary filter
// suspends, the secondary filter drains the array, and the traversal
// resumes: that is what makes the table function pipelined rather than
// materializing.
const DefaultCandidateCap = 4096

// Config tunes a join.
type Config struct {
	// Mask is the interaction predicate (default ANYINTERACT). With a
	// Distance > 0 the predicate is within-distance instead.
	Mask geom.Mask
	// Distance, when positive, selects a within-distance join: pairs
	// whose exact geometries lie within this distance. Zero means the
	// Mask relationship ("intersection (distance of 0)" per the paper).
	Distance float64
	// CandidateCap bounds the candidate array (0 = DefaultCandidateCap).
	CandidateCap int
	// SortCandidates controls whether the candidate array is sorted by
	// first rowid before the secondary filter. The paper adopts sorting
	// ("within 20% of the best approximate solutions"); disabling it is
	// the ablation baseline ("a random order of fetching").
	SortCandidates bool
	// FetchBatch is the table-function fetch size (0 = framework
	// default).
	FetchBatch int
	// GridTiles, when positive, overrides the grid-partitioned path's
	// automatic tile-count choice (GridShape) — an ablation knob for
	// studying tile granularity. Rounded up to a square grid.
	GridTiles int
	// GeomCacheBytes bounds the decoded-geometry cache of the secondary
	// filter in bytes (0 = DefaultGeomCacheBytes; negative disables the
	// cache). Ignored when GeomCache is set.
	GeomCacheBytes int
	// GeomCache, when non-nil, is a shared cache instance used instead
	// of a join-private one — the facade shares one cache per database
	// so parallel instances and successive joins reuse decodes.
	GeomCache *GeomCache
	// Instr, when non-nil, receives the join's work counters and
	// batch-granular stage latencies. Shared across parallel instances;
	// nil (the default) keeps the join free of telemetry writes.
	Instr *Instruments
	// Trace, when non-nil, is the per-query span trace the join's
	// stages are recorded on (it also enables per-fetch geometry-fetch
	// timing, which is too hot for always-on collection).
	Trace *telemetry.Trace
	// Owns, when non-nil, restricts the result to the pairs whose
	// reference point (PairRefPoint of the two index MBRs) it claims:
	// the shard side of a scatter-gather cluster join, where every
	// shard holding replicas of both rows would otherwise report the
	// pair. The test runs where a primary filter emits the pair, so an
	// unowned pair is never fetched or refined. Must be a pure function
	// of the point; parallel instances call it concurrently.
	Owns func(x, y float64) bool
	// count runs every instance of the join function in count mode
	// (CountJoin, RunJoinFunction).
	count bool
}

// WithDefaults normalises a config: every "0 = default" field holds the
// value the join will run with. The join entry points apply it
// themselves; it is exported so a caller that reports the plan (the
// facade's ExplainJoin) reads the same values instead of re-deriving
// them.
func (c Config) WithDefaults() Config {
	if c.CandidateCap <= 0 {
		c.CandidateCap = DefaultCandidateCap
	}
	return c
}

// DefaultConfig returns the configuration the paper's experiments use:
// ANYINTERACT (or a distance), sorted candidate fetch.
func DefaultConfig() Config {
	return Config{Mask: geom.MaskAnyInteract, SortCandidates: true}
}

// primaryAccepts reports whether a pair of index MBRs survives the
// primary filter.
func (c Config) primaryAccepts(a, b geom.MBR) bool {
	if c.Distance > 0 {
		return a.Dist(b) <= c.Distance
	}
	return a.Intersects(b)
}

// secondaryAccepts evaluates the exact predicate on fetched geometries.
func (c Config) secondaryAccepts(a, b geom.Geometry) bool {
	if c.Distance > 0 {
		return geom.WithinDistance(a, b, c.Distance)
	}
	return geom.Relate(a, b, c.Mask)
}

// appendPairRows appends result pairs to b as table-function output
// rows (rid1, rid2) of rowid values (storage.Rid), so a row lives
// entirely in the batch's slab and renders as page.slot text.
func appendPairRows(b *storage.Batch, pairs []Pair) {
	for i, row := range b.Extend(len(pairs), 2) {
		row[0] = storage.Rid(pairs[i].A)
		row[1] = storage.Rid(pairs[i].B)
	}
}

// PairFromRow decodes a spatial_join output row.
func PairFromRow(row storage.Row) (Pair, error) {
	if len(row) != 2 || row[0].Type != storage.TRowID || row[1].Type != storage.TRowID {
		types := make([]string, len(row))
		for i, v := range row {
			types[i] = v.Type.String()
		}
		return Pair{}, fmt.Errorf("sjoin: not a (rid1, rid2) row: (%s)", strings.Join(types, ", "))
	}
	return Pair{A: row[0].RowID(), B: row[1].RowID()}, nil
}

// AppendPairs decodes a batch of spatial_join output rows onto dst.
func AppendPairs(dst []Pair, rows []storage.Row) ([]Pair, error) {
	for _, row := range rows {
		p, err := PairFromRow(row)
		if err != nil {
			return dst, err
		}
		dst = append(dst, p)
	}
	return dst, nil
}

// CollectPairs drains a join cursor into a pair slice, a fetch batch
// at a time.
func CollectPairs(c storage.Cursor) ([]Pair, error) {
	defer c.Close()
	var out []Pair
	var b storage.Batch
	for {
		b.Reset()
		err := c.NextBatch(&b, 0)
		var perr error
		if out, perr = AppendPairs(out, b.Rows); perr != nil {
			return nil, perr
		}
		if err != nil {
			return nil, err
		}
		if len(b.Rows) == 0 {
			return out, nil
		}
	}
}

// PairsCursor wraps a materialised pair slice as a join-output cursor
// (rows encoded like the table function's), for paths that compute
// eagerly — the facade's nested-loop algorithm choice.
func PairsCursor(pairs []Pair) storage.Cursor {
	var b storage.Batch
	appendPairRows(&b, pairs)
	return storage.NewSliceCursor(nil, b.Rows)
}

// SortPairs orders pairs by (A, B) for deterministic comparison.
func SortPairs(pairs []Pair) {
	slices.SortFunc(pairs, comparePairs)
}
