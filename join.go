package spatialtf

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// Pair is one spatial-join result: the rowids of the interacting rows
// from the first and second table.
type Pair = sjoin.Pair

// JoinOptions tunes a spatial join.
type JoinOptions struct {
	// Mask is the interaction predicate name (default "anyinteract").
	Mask string
	// Distance, when positive, makes it a within-distance join (the
	// paper's Table 1 "specifying a distance").
	Distance float64
	// Parallel is the number of parallel table-function instances; 0 or
	// 1 runs the single pipelined spatial_join of §4, >1 the subtree-
	// decomposed parallel join of §4.1. Paths selected through Algo
	// treat 0 as "use every core" (runtime.GOMAXPROCS).
	Parallel int
	// Algo selects the join path. "" keeps the legacy Parallel-driven
	// dispatch above; "auto" engages the cost model (cardinalities, MBR
	// density, worker count); "nested", "subtree", and "grid" force a
	// path — the ablation override. "grid" is the grid-partitioned
	// parallel join: a uniform tile grid with two-layer A/B/C/D
	// duplicate avoidance, a per-tile plane sweep, and instances that
	// claim tiles off a shared longest-first queue.
	Algo string
	// CandidateCap bounds the in-memory candidate array of the §4.2
	// two-stage evaluation (0 = default).
	CandidateCap int
	// GeomCacheBytes selects the decoded-geometry cache the secondary
	// filter fetches through: 0 (default) shares the database-wide
	// cache, > 0 gives this join a private cache of that byte size, and
	// < 0 disables caching (ablation switch).
	GeomCacheBytes int
	// Scope, when non-nil, restricts the result to the pairs this
	// cluster shard owns under the reference-point rule (see
	// ClusterScope): the shard-side half of a scatter-gather cluster
	// join. The cluster's replication margin must cover Distance. The
	// owner test runs on the index MBRs where the primary filter emits
	// a candidate, before any geometry is fetched.
	Scope *ClusterScope
}

// CacheStats summarises the decoded-geometry cache (see
// DB.GeomCacheStats): the joins' lookups, hits and misses, and what the
// cache holds, its bytes and entries.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Bytes   int64
	Entries int64
}

func (o JoinOptions) config() (sjoin.Config, error) {
	cfg := sjoin.DefaultConfig()
	if o.Mask != "" {
		m, err := geom.ParseMask(o.Mask)
		if err != nil {
			return cfg, err
		}
		cfg.Mask = m
	}
	cfg.Distance = o.Distance
	cfg.CandidateCap = o.CandidateCap
	cfg.GeomCacheBytes = o.GeomCacheBytes
	if o.Scope != nil {
		cfg.Owns = o.Scope.OwnsPoint
	}
	return cfg.WithDefaults(), nil
}

// joinConfig resolves JoinOptions against this database: the default
// cache selection (GeomCacheBytes == 0) binds the join to the shared
// per-database cache.
func (db *DB) joinConfig(opt JoinOptions) (sjoin.Config, error) {
	cfg, err := opt.config()
	if err != nil {
		return cfg, err
	}
	if opt.GeomCacheBytes == 0 {
		cfg.GeomCache = db.geomCache
	}
	db.mu.RLock()
	cfg.Instr = db.instr
	db.mu.RUnlock()
	return cfg, nil
}

// GeomCacheStats reports the residency of the database-wide
// decoded-geometry cache and the hits and misses of the joins' cache
// lookups. Like every other join counter, hits and misses are read from
// the database's instruments, so they stay zero while telemetry is off.
func (db *DB) GeomCacheStats() CacheStats {
	var st CacheStats
	st.Bytes, st.Entries = db.geomCache.Resident()
	db.mu.RLock()
	in := db.instr
	db.mu.RUnlock()
	if in != nil {
		st.Hits, st.Misses = in.CacheHits.Value(), in.CacheMisses.Value()
	}
	return st
}

// joinSource resolves (table, index) into an R-tree join operand: the
// base table and an index that is on it.
func (db *DB) joinSource(table, index string) (sjoin.Source, error) {
	t, err := db.Table(table)
	if err != nil {
		return sjoin.Source{}, err
	}
	ix, err := db.Index(index)
	if err != nil {
		return sjoin.Source{}, err
	}
	if on := ix.Meta().TableName; on != table {
		return sjoin.Source{}, fmt.Errorf("spatialtf: index %q is on table %q, not %q", index, on, table)
	}
	tree, err := ix.rtree()
	if err != nil {
		return sjoin.Source{}, err
	}
	return sjoin.Source{Table: t.inner, Column: ix.Meta().ColumnName, Tree: tree}, nil
}

// rtreeJoin resolves a join call over two R-tree-indexed operands: the
// configuration and both sources.
func (db *DB) rtreeJoin(tableA, indexA, tableB, indexB string, opt JoinOptions) (cfg sjoin.Config, a, b sjoin.Source, err error) {
	if cfg, err = db.joinConfig(opt); err != nil {
		return cfg, a, b, err
	}
	if a, err = db.joinSource(tableA, indexA); err != nil {
		return cfg, a, b, err
	}
	b, err = db.joinSource(tableB, indexB)
	return cfg, a, b, err
}

// pinTrees read-pins the operand R-trees so concurrent DML waits for
// the cursor instead of racing its NodeRef traversal, returning the
// matching unpin. Pins are acquired in tree creation order so two
// cursors over the same pair of trees (in either operand order) cannot
// deadlock against queued writers.
func pinTrees(a, b *rtree.Tree) func() {
	if a == b {
		a.Pin()
		return a.Unpin
	}
	if a.Seq() > b.Seq() {
		a, b = b, a
	}
	a.Pin()
	//spatiallint:ignore lockdiscipline both pins are read locks on distinct trees taken in Seq() creation order, so no two holders can invert the order and deadlock against a queued writer
	b.Pin()
	return func() {
		b.Unpin()
		a.Unpin()
	}
}

// JoinCursor streams spatial-join result pairs — the pipelined rows of
//
//	select rid1, rid2 from TABLE(spatial_join(...))
//
// While the cursor is open the operand R-trees are pinned: reads stay
// concurrent but DML on the joined tables blocks until Close (or the
// stream is drained). Always Close a JoinCursor.
type JoinCursor struct {
	cur    storage.Cursor
	unpin  func()
	trace  *telemetry.Trace // nil unless DB.SetTracer is active
	closed sync.Once

	rows storage.Batch // the fetch batch being decoded, reused

	// Row-at-a-time state of Next: the current batch and the error
	// that followed it.
	pairs []Pair
	pos   int
	err   error
}

// NextBatch appends the next fetch batch of result pairs — at most max
// of them, the join's own fetch size when max <= 0 — to dst and returns
// the extended slice. Appending nothing with a nil error means end of
// stream. Pairs that precede an error are returned with it. Read a
// cursor with NextBatch or with Next, not both.
func (jc *JoinCursor) NextBatch(dst []Pair, max int) ([]Pair, error) {
	jc.rows.Reset()
	err := jc.cur.NextBatch(&jc.rows, max)
	dst, perr := sjoin.AppendPairs(dst, jc.rows.Rows)
	if perr != nil {
		return dst, perr
	}
	return dst, err
}

// NextRows appends the next fetch batch of result rows to b — at most
// max of them, the join's own fetch size when max <= 0 — as the table
// function produced them: (rid1, rid2), each cell a rowid value
// (storage.Rid) that renders as page.slot text. The rows follow b's
// contract (storage.Batch): no pair is decoded or copied on the way.
// Appending nothing with a nil error means end of stream. Read a cursor
// with one of NextRows, NextBatch and Next.
func (jc *JoinCursor) NextRows(b *storage.Batch, max int) error {
	return jc.cur.NextBatch(b, max)
}

// Trace returns the cursor's per-query trace, nil unless DB.SetTracer
// is active; a consumer of its rows may record spans of its own on it
// until Close.
func (jc *JoinCursor) Trace() *telemetry.Trace { return jc.trace }

// Next returns the next result pair; ok is false at end of stream.
func (jc *JoinCursor) Next() (p Pair, ok bool, err error) {
	for jc.pos >= len(jc.pairs) {
		if jc.err != nil {
			return Pair{}, false, jc.err
		}
		jc.pairs, jc.err = jc.NextBatch(jc.pairs[:0], 0)
		jc.pos = 0
		if jc.err == nil && len(jc.pairs) == 0 {
			return Pair{}, false, nil
		}
	}
	p = jc.pairs[jc.pos]
	jc.pos++
	return p, true, nil
}

// Close releases the cursor (and cancels parallel instances) and
// unpins the operand trees. Close is idempotent.
func (jc *JoinCursor) Close() error {
	err := jc.cur.Close()
	jc.closed.Do(func() {
		jc.trace.Finish()
		if jc.unpin != nil {
			jc.unpin()
		}
	})
	return err
}

// Collect drains the cursor into a slice and closes it.
func (jc *JoinCursor) Collect() ([]Pair, error) {
	defer jc.Close()
	var out []Pair
	for {
		n := len(out)
		var err error
		if out, err = jc.NextBatch(out, 0); err != nil {
			return nil, err
		}
		if len(out) == n {
			return out, nil
		}
	}
}

// SpatialJoin evaluates the index-based spatial join of two R-tree-
// indexed tables through the spatial_join table function, pipelined
// (Parallel ≤ 1) or parallel over subtree pairs (Parallel > 1).
func (db *DB) SpatialJoin(tableA, indexA, tableB, indexB string, opt JoinOptions) (*JoinCursor, error) {
	j, err := db.bindJoin(tableA, indexA, tableB, indexB, opt)
	if err != nil {
		return nil, err
	}
	cur, err := sjoin.Join(j.a, j.b, j.cfg, j.plan)
	if err != nil {
		j.release()
		return nil, err
	}
	return &JoinCursor{cur: cur, unpin: j.unpin, trace: j.cfg.Trace}, nil
}

// CountSpatialJoin returns the number of result pairs SpatialJoin would
// stream — select count(*) over the spatial_join table function — with
// the count computed inside the join: each instance counts the pairs it
// proves or keeps and returns one row, its count, so no result pair
// becomes a row. The operand trees stay pinned until it returns.
func (db *DB) CountSpatialJoin(tableA, indexA, tableB, indexB string, opt JoinOptions) (int, error) {
	j, err := db.bindJoin(tableA, indexA, tableB, indexB, opt)
	if err != nil {
		return 0, err
	}
	defer j.release()
	return sjoin.CountJoin(j.a, j.b, j.cfg, j.plan)
}

// boundJoin is a join call resolved against the database — its
// configuration, operands and plan — with its per-query trace begun
// (when a tracer is attached; the join instances feed its stage
// aggregates) and both operand trees pinned.
type boundJoin struct {
	cfg   sjoin.Config
	a, b  sjoin.Source
	plan  sjoin.PlanChoice
	unpin func()
}

// bindJoin resolves and binds a join call; the caller releases it, or
// hands its unpin and trace to the cursor that does.
func (db *DB) bindJoin(tableA, indexA, tableB, indexB string, opt JoinOptions) (boundJoin, error) {
	cfg, a, b, err := db.rtreeJoin(tableA, indexA, tableB, indexB, opt)
	if err != nil {
		return boundJoin{}, err
	}
	plan, err := resolveJoinAlgo(a, b, cfg, opt)
	if err != nil {
		return boundJoin{}, err
	}
	cfg.Trace = db.getTracer().Begin(fmt.Sprintf("spatial_join %s*%s", tableA, tableB))
	unpin := pinTrees(a.Tree, b.Tree)
	return boundJoin{cfg: cfg, a: a, b: b, plan: plan, unpin: unpin}, nil
}

// release unpins the operand trees and finishes the trace.
func (j boundJoin) release() {
	j.unpin()
	j.cfg.Trace.Finish()
}

// resolveJoinAlgo maps JoinOptions onto a concrete join path and worker
// count. Algo == "" preserves the legacy dispatch (Parallel > 1 selects
// the subtree-parallel path, else serial); "auto" runs the sjoin cost
// model, whose choice carries its Reason; anything else is a forced
// override. Paths chosen through Algo resolve Parallel <= 0 to all
// cores.
func resolveJoinAlgo(a, b sjoin.Source, cfg sjoin.Config, opt JoinOptions) (sjoin.PlanChoice, error) {
	if opt.Algo == "" {
		return sjoin.PlanChoice{Algo: sjoin.AlgoSubtree, Workers: max(opt.Parallel, 1)}, nil
	}
	algo, err := sjoin.ParseAlgo(opt.Algo)
	if err != nil {
		return sjoin.PlanChoice{}, fmt.Errorf("spatialtf: %w", err)
	}
	if algo == sjoin.AlgoAuto {
		return sjoin.ChoosePlan(a, b, cfg, opt.Parallel), nil
	}
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return sjoin.PlanChoice{Algo: algo, Workers: workers}, nil
}

// ExplainJoin describes how a SpatialJoin with the given options would
// execute, without running it: the strategy, the operand index shapes,
// the proof routes the secondary filter may settle pairs by, and — for
// parallel joins — the subtree decomposition (§4.1) including the
// number of scheduled and MBR-pruned subtree-pair tasks. It is the
// EXPLAIN PLAN of the spatial_join table function.
func (db *DB) ExplainJoin(tableA, indexA, tableB, indexB string, opt JoinOptions) (string, error) {
	cfg, a, b, err := db.rtreeJoin(tableA, indexA, tableB, indexB, opt)
	if err != nil {
		return "", err
	}
	plan, err := resolveJoinAlgo(a, b, cfg, opt)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	pred := fmt.Sprintf("mask=%s", cfg.Mask)
	if cfg.Distance > 0 {
		pred = fmt.Sprintf("distance=%g", cfg.Distance)
	}
	fmt.Fprintf(&sb, "SPATIAL JOIN (%s)\n", pred)
	fmt.Fprintf(&sb, "  operand A: table %s via index %s (R-tree: %d items, height %d, fanout %d)\n",
		tableA, indexA, a.Tree.Len(), a.Tree.Height(), a.Tree.MaxEntries())
	fmt.Fprintf(&sb, "  operand B: table %s via index %s (R-tree: %d items, height %d, fanout %d)\n",
		tableB, indexB, b.Tree.Len(), b.Tree.Height(), b.Tree.MaxEntries())
	fmt.Fprintf(&sb, "  two-stage evaluation: candidate array cap %d, secondary filter fetch order %s\n",
		cfg.CandidateCap, map[bool]string{true: "sorted by first rowid", false: "arrival order"}[cfg.SortCandidates])
	sb.WriteString("  primary filter: plane sweep\n")
	switch {
	case cfg.GeomCache != nil:
		sb.WriteString("  decoded-geometry cache: shared per-database\n")
	case cfg.GeomCacheBytes < 0:
		sb.WriteString("  decoded-geometry cache: disabled\n")
	default:
		fmt.Fprintf(&sb, "  decoded-geometry cache: private, %d bytes\n", cfg.GeomCacheBytes)
	}
	routes, err := sjoin.ProofRoutes(a, b, cfg)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "  proof routes: %s\n", routes)
	if sc := opt.Scope; sc != nil {
		fmt.Fprintf(&sb, "  cluster scope: shard %d of %d, owner test at candidate emission\n", sc.Shard, sc.NShards)
	}
	if opt.Algo != "" {
		fmt.Fprintf(&sb, "  algorithm: %s (hint %q)\n", plan.Algo, opt.Algo)
	}
	if plan.Reason != "" {
		fmt.Fprintf(&sb, "  cost model: %s\n", plan.Reason)
	}
	switch plan.Algo {
	case sjoin.AlgoGrid:
		cols, rows := sjoin.GridShape(a.Tree.Len(), b.Tree.Len(), plan.Workers)
		fmt.Fprintf(&sb, "  strategy: GRID-PARTITIONED parallel table function, %d instances\n", plan.Workers)
		fmt.Fprintf(&sb, "  grid decomposition: %dx%d uniform tiles over the joint extent; per-tile plane sweep; two-layer A/B/C/D classes (no dedup pass); tiles claimed dynamically, longest first\n",
			cols, rows)
	case sjoin.AlgoNested:
		sb.WriteString("  strategy: NESTED LOOP (per-row probes of operand B's index)\n")
	default:
		if plan.Workers > 1 {
			pairs := sjoin.SubtreePairsForWorkers(a.Tree, b.Tree, plan.Workers, cfg)
			descend := 0
			if len(pairs) > 0 {
				descend = a.Tree.Height() - pairs[0].A.Level()
			}
			roots := len(a.Tree.SubtreeRoots(descend))
			total := roots * len(b.Tree.SubtreeRoots(descend))
			if sjoin.UnorderedPairs(a, b, cfg) {
				total = roots * (roots + 1) / 2 // one tree's unordered root pairs
			}
			fmt.Fprintf(&sb, "  strategy: PARALLEL pipelined table function, %d instances\n", plan.Workers)
			fmt.Fprintf(&sb, "  subtree decomposition: descend %d level(s); %d subtree-pair tasks scheduled, %d pruned as disjoint; tasks claimed longest first\n",
				descend, len(pairs), total-len(pairs))
		} else {
			sb.WriteString("  strategy: SERIAL pipelined table function (single root pair)\n")
		}
	}
	return sb.String(), nil
}

// NestedLoopJoin evaluates the same join with the pre-9i baseline
// strategy (per-row index probes), the comparison point of Tables 1-2.
func (db *DB) NestedLoopJoin(tableA, indexA, tableB, indexB string, opt JoinOptions) ([]Pair, error) {
	cfg, a, b, err := db.rtreeJoin(tableA, indexA, tableB, indexB, opt)
	if err != nil {
		return nil, err
	}
	return sjoin.NestedLoop(a, b, cfg)
}
