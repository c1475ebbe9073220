package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"spatialtf"
	"spatialtf/internal/extidx"
	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/pager"
	"spatialtf/internal/rtree"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// The layer ladder executes the same statement at successive depths of
// the stack, from outside, through each package's public functions. A
// rung's self time is its median minus the median of the rung below.
// Repetitions interleave the rungs so drift hits them all alike.

// ladderShape is how often each rung runs: reps blocks, interleaved with
// the other rungs, of 1+block back-to-back runs of which the first is
// discarded: 20 kept samples per rung at full scale, 9 where the ladder
// is long (cluster_mixed climbs three of them).
func ladderShape(rc runConfig) (reps, block int) {
	switch {
	case rc.tiny:
		return 2, 1
	case rc.shortLadder:
		return 3, 3
	}
	return 5, 4
}

// drainCursor pulls a storage cursor dry and returns the row count.
func drainCursor(cur storage.Cursor) (int, error) {
	n := 0
	for {
		_, _, ok, err := cur.Next()
		if err != nil {
			cur.Close()
			return n, err
		}
		if !ok {
			return n, cur.Close()
		}
		n++
	}
}

// timeIndexBuild reports the median R-tree build time of a table.
func timeIndexBuild(tr *tracer, tab *storage.Table) error {
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, _, err := idxbuild.CreateRtree(tab, "geom", 0, 2); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	tr.set("idxbuild.rtree_build_ms", median(ms))
	return nil
}

// candidatePairs is the primary filter's output computed the slow way:
// every pair of index entries whose MBRs interact (or lie within dist).
func candidatePairs(a, b sjoin.Source, dist float64) []sjoin.Pair {
	var out []sjoin.Pair
	for _, it := range a.Tree.Items() {
		emit := func(o rtree.Item) bool {
			out = append(out, sjoin.Pair{A: it.ID, B: o.ID})
			return true
		}
		if dist > 0 {
			b.Tree.SearchWithinDist(it.MBR, dist, emit)
		} else {
			b.Tree.Search(it.MBR, emit)
		}
	}
	return out
}

// joinLadder climbs one spatial_join statement of db, served at addr:
// geom predicate over the candidate list -> storage fetch and geometry
// decode -> sjoin -> tablefunc -> DB.SpatialJoin -> sqlmini -> wire.
func joinLadder(tr *tracer, db *spatialtf.DB, addr string, def joinDef, rc runConfig) error {
	a, err := joinSource(db, def.a)
	if err != nil {
		return err
	}
	b := a
	if def.b != def.a {
		if b, err = joinSource(db, def.b); err != nil {
			return err
		}
	}
	if err := timeIndexBuild(tr, a.Table); err != nil {
		return err
	}
	cfg := sjoin.DefaultConfig()
	cfg.Distance = def.dist
	cfg.GeomCache = sjoin.NewGeomCache(0)                         // warm across repetitions, like the database-wide cache
	plan := sjoin.PlanChoice{Algo: sjoin.AlgoSubtree, Workers: 1} // what the facade runs without a hint
	if def.algo == "auto" {
		plan = sjoin.ChoosePlan(a, b, cfg, def.workers)
	}
	serial := plan.Algo == sjoin.AlgoSubtree && plan.Workers <= 1

	// Inputs of the two lowest rungs: the candidate pairs with their
	// geometries already decoded, and the distinct rows behind them.
	cands := candidatePairs(a, b, def.dist)
	colA, _ := a.Table.ColumnIndex("geom")
	colB, _ := b.Table.ColumnIndex("geom")
	type side struct {
		tab   *storage.Table
		col   int
		geoms map[storage.RowID]geom.Geometry
	}
	sides := [2]side{{a.Table, colA, map[storage.RowID]geom.Geometry{}}, {b.Table, colB, map[storage.RowID]geom.Geometry{}}}
	var images [][]byte
	for _, c := range cands {
		for s, id := range [2]storage.RowID{c.A, c.B} {
			if _, ok := sides[s].geoms[id]; ok {
				continue
			}
			v, err := sides[s].tab.FetchColumn(id, sides[s].col)
			if err != nil {
				return err
			}
			sides[s].geoms[id] = v.G
			images = append(images, geom.MarshalBinary(v.G))
		}
	}
	if len(cands) == 0 || len(images) == 0 {
		return fmt.Errorf("join %s has no candidates to ladder", def.name)
	}

	eng := sqlmini.NewEngineOn(db)
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	sql := def.sql(false)
	opt := spatialtf.JoinOptions{Mask: "anyinteract", Distance: def.dist, Algo: def.algo, Parallel: def.workers}

	// The statement's rows, for the codec rung.
	var rows []storage.Row
	var schema []storage.Column
	{
		st, err := eng.ExecuteStream(sql)
		if err != nil {
			return err
		}
		schema = st.Schema
		for {
			_, row, ok, err := st.Cursor.Next()
			if err != nil {
				st.Cursor.Close()
				return err
			}
			if !ok {
				break
			}
			rows = append(rows, row)
		}
		if err := st.Cursor.Close(); err != nil {
			return err
		}
	}
	const batch = 256 // the server's default fetch batch
	var wireBytes int

	// runSjoin runs the join at the sjoin package boundary, on the plan
	// the facade would pick.
	runSjoin := func(c sjoin.Config) error {
		switch {
		case plan.Algo == sjoin.AlgoGrid:
			cur, err := sjoin.GridParallelJoin(a, b, c, plan.Workers)
			if err != nil {
				return err
			}
			_, err = drainCursor(cur)
			return err
		case plan.Algo == sjoin.AlgoNested:
			_, err := sjoin.NestedLoop(a, b, c)
			return err
		case !serial:
			cur, err := sjoin.ParallelIndexJoin(a, b, c, plan.Workers)
			if err != nil {
				return err
			}
			_, err = drainCursor(cur)
			return err
		}
		fn, err := sjoin.NewJoinFunction(a, b, c)
		if err != nil {
			return err
		}
		_, _, err = sjoin.RunJoinFunction(fn, 0)
		return err
	}

	var sjoinWall time.Duration // of every traced sjoin run, discarded first runs included
	tracedRuns := 0
	if err := tr.climb("join ladder "+def.name, rc, []step{
		{"geom.relate", func() error {
			n := 0
			for _, c := range cands {
				ga, gb := sides[0].geoms[c.A], sides[1].geoms[c.B]
				if def.dist > 0 {
					if geom.WithinDistance(ga, gb, def.dist) {
						n++
					}
				} else if geom.Relate(ga, gb, geom.MaskAnyInteract) {
					n++
				}
			}
			if n != len(rows) {
				return fmt.Errorf("exact predicate accepts %d of the candidates, the join returns %d rows", n, len(rows))
			}
			return nil
		}},
		{"storage.fetch", func() error {
			for s := range sides {
				for id := range sides[s].geoms {
					if _, err := sides[s].tab.FetchColumn(id, sides[s].col); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{"geom.decode", func() error {
			for _, img := range images {
				if _, err := geom.UnmarshalBinary(img); err != nil {
					return err
				}
			}
			return nil
		}},
		{"sjoin", func() error { return runSjoin(cfg) }},
		{"sjoin.traced", func() error {
			c := cfg
			c.Trace = tr.probe.qt.Begin("ladder spatial_join " + def.name)
			defer c.Trace.Finish()
			t0 := time.Now()
			defer func() { sjoinWall += time.Since(t0); tracedRuns++ }()
			return runSjoin(c)
		}},
		{"tablefunc", func() error {
			if !serial {
				return nil // the parallel plans run tablefunc.Parallel inside the sjoin rung
			}
			fn, err := sjoin.NewJoinFunction(a, b, cfg)
			if err != nil {
				return err
			}
			_, err = drainCursor(tablefunc.Pipeline(fn, 0))
			return err
		}},
		{"spatialtf", func() error {
			cur, err := db.SpatialJoin(def.a, def.a+"_idx", def.b, def.b+"_idx", opt)
			if err != nil {
				return err
			}
			defer cur.Close()
			for {
				if _, ok, err := cur.Next(); err != nil || !ok {
					return err
				}
			}
		}},
		{"sqlmini", func() error {
			st, err := eng.ExecuteStream(sql)
			if err != nil {
				return err
			}
			_, err = drainCursor(st.Cursor)
			return err
		}},
		{"wire.codec", func() error {
			n, err := codecRoundTrip(schema, rows, batch)
			wireBytes = n
			return err
		}},
		{"wire", func() error {
			_, _, err := execOp(cli, sql)
			return err
		}},
	}); err != nil {
		return err
	}

	ms := func(rung string) float64 { return tr.med(rung) / 1e6 }
	tr.set("geom.relate_us_per_call", tr.med("geom.relate")/1e3/float64(len(cands)))
	tr.set("storage.fetch_us_per_row", tr.med("storage.fetch")/1e3/float64(len(images)))
	tr.set("geom.decode_us_per_geom", tr.med("geom.decode")/1e3/float64(len(images)))
	tr.set("sjoin.join_ms", ms("sjoin"))
	below := ms("sjoin")
	if serial {
		tr.set("tablefunc.self_ms", ms("tablefunc")-below)
		below = ms("tablefunc")
	}
	tr.set("spatialtf.self_ms", ms("spatialtf")-below)
	tr.set("sqlmini.self_ms", ms("sqlmini")-ms("spatialtf"))
	tr.set("wire.codec_ms", ms("wire.codec"))
	tr.set("server.self_ms", ms("wire")-ms("sqlmini")-ms("wire.codec"))
	fetches := (len(rows) + batch - 1) / batch
	if len(rows)%batch == 0 {
		fetches++ // a full last batch needs one more fetch to learn the stream ended
	}
	tr.set("wire.bytes_per_row", float64(wireBytes)/float64(len(rows)))
	tr.set("wire.round_trips_per_stmt", float64(1+fetches))
	tr.set("server.batch_rows_mean", float64(len(rows))/float64(fetches))
	tr.set("ladder.wire_ms", ms("wire"))
	tr.set("ladder.relate_ms", ms("geom.relate"))

	// Of the sjoin rung's wall time, how much do the program's own stage
	// spans account for? geom_fetch nests inside secondary_filter and
	// fetch wraps everything, so only the disjoint stages are summed.
	nanos, count := tr.probe.totals()
	var covered int64
	for _, st := range []telemetry.Stage{telemetry.StagePrimary, telemetry.StageSort, telemetry.StageSecondary,
		telemetry.StageGridPartition, telemetry.StageTileSweep} {
		covered += nanos[st]
	}
	tr.set("sjoin.span_coverage", float64(covered)/float64(sjoinWall))
	// The parallel plans wrap their instances in tablefunc.Traced, which
	// counts fetch calls on the trace; the serial function is driven bare,
	// one fetch per batch and a last empty one.
	fetchCalls := float64(count[telemetry.StageFetch]) / float64(tracedRuns)
	if serial {
		fetchCalls = float64(len(rows)/tablefunc.DefaultBatch + 1)
	}
	tr.set("tablefunc.fetch_calls", fetchCalls)
	return nil
}

// codecRoundTrip pushes a statement's rows through the wire codec and an
// in-memory buffer, batch by batch: AppendBatch, WriteFrame, ReadFrame,
// ParseBatch. It returns the framed bytes.
func codecRoundTrip(schema []storage.Column, rows []storage.Row, batch int) (int, error) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	br := bufio.NewReader(&buf)
	var img []byte
	total := 0
	for lo := 0; lo < len(rows) || lo == 0; lo += batch {
		hi := min(lo+batch, len(rows))
		var err error
		if img, err = wire.AppendBatch(img[:0], 1, hi == len(rows), schema, rows[lo:hi]); err != nil {
			return 0, err
		}
		if err := wire.WriteFrame(bw, wire.FrameBatch, img); err != nil {
			return 0, err
		}
		if err := bw.Flush(); err != nil {
			return 0, err
		}
		total += buf.Len()
		_, payload, err := wire.ReadFrame(br)
		if err != nil {
			return 0, err
		}
		if _, _, _, err := wire.ParseBatch(payload, schema); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// lookupLadder climbs a seeded sample of window statements of db, served
// at addr: WKT parse -> rtree search -> extidx.Relate -> DB.Relate ->
// sqlmini -> wire. Every rung runs the whole sample; metrics are per
// statement.
func lookupLadder(tr *tracer, db *spatialtf.DB, addr string, tables []string, rc runConfig) error {
	sample := 200
	if rc.tiny {
		sample = 20
	}
	type target struct {
		tab  *storage.Table
		tree *rtree.Tree
		idx  extidx.SpatialIndex
	}
	targets := map[string]target{}
	for _, name := range tables {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		col, err := t.Inner().ColumnIndex("geom")
		if err != nil {
			return err
		}
		idx, err := extidx.BuildRTree(t.Inner(), col, extidx.Params{BuildWorkers: 2})
		if err != nil {
			return err
		}
		tree := idx.(interface{ Tree() *rtree.Tree }).Tree()
		targets[name] = target{t.Inner(), tree, idx}
	}
	if tr.values["idxbuild.rtree_build_ms"] == 0 {
		if err := timeIndexBuild(tr, targets[tables[0]].tab); err != nil {
			return err
		}
	}
	gen := newWindowGen(rc.seed+99, tables...)
	ops := make([]op, sample)
	for i := range ops {
		ops[i] = gen.relate(true, primary)
	}
	eng := sqlmini.NewEngineOn(db)
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()

	var nodes, rowsOut int
	each := func(fn func(o *op, t target) error) func() error {
		return func() error {
			for i := range ops {
				if err := fn(&ops[i], targets[ops[i].q.table]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := tr.climb("lookup ladder", rc, []step{
		{"geom.wkt", each(func(o *op, _ target) error {
			_, err := geom.ParseWKT(o.q.wkt)
			return err
		})},
		{"rtree.search", func() error {
			nodes = 0
			return each(func(o *op, t target) error {
				nodes += t.tree.SearchCounted(geom.MBROf(o.q.g), func(rtree.Item) bool { return true })
				return nil
			})()
		}},
		{"extidx", each(func(o *op, t target) error {
			_, err := extidx.Relate(t.idx, t.tab, "geom", o.q.g, geom.MaskAnyInteract)
			return err
		})},
		{"spatialtf.relate", each(func(o *op, _ target) error {
			_, err := db.Relate(o.q.table, o.q.table+"_idx", o.q.g, "anyinteract")
			return err
		})},
		{"sqlmini.lookup", func() error {
			rowsOut = 0
			return each(func(o *op, _ target) error {
				st, err := eng.ExecuteStream(o.sql)
				if err != nil {
					return err
				}
				n, err := drainCursor(st.Cursor)
				rowsOut += n
				return err
			})()
		}},
		{"wire.lookup", each(func(o *op, _ target) error {
			_, _, err := execOp(cli, o.sql)
			return err
		})},
	}); err != nil {
		return err
	}
	// Rows of a lookup are one INT each; size one such batch.
	img, err := wire.AppendBatch(nil, 1, true, []storage.Column{{Name: "id", Type: storage.TInt64}},
		[]storage.Row{{storage.Int(12345)}})
	if err != nil {
		return err
	}

	us := func(rung string) float64 { return tr.med(rung) / 1e3 / float64(sample) }
	tr.set("geom.wkt_parse_us", us("geom.wkt"))
	tr.set("rtree.search_us_per_lookup", us("rtree.search"))
	tr.set("rtree.nodes_per_lookup", float64(nodes)/float64(sample))
	tr.set("extidx.relate_us_per_lookup", us("extidx"))
	tr.set("sqlmini.self_us_per_lookup", us("sqlmini.lookup")-us("spatialtf.relate"))
	tr.set("server.self_us_per_lookup", us("wire.lookup")-us("sqlmini.lookup"))
	tr.set("ladder.lookup_wire_us", us("wire.lookup"))
	if tr.values["wire.round_trips_per_stmt"] == 0 {
		// A lookup is a Query and one Fetch that drains it.
		tr.set("wire.round_trips_per_stmt", 2)
		tr.set("wire.bytes_per_row", float64(len(img)))
		tr.set("server.batch_rows_mean", float64(rowsOut)/float64(sample))
		tr.set("ladder.wire_ms", us("wire.lookup")/1e3)
	}
	return nil
}

// ladder climbs the ingest path with fresh rows: a durable
// storage.Table.Insert (on a scratch store configured like the
// workload's) -> rtree.Tree.Insert -> sqlmini INSERT -> wire INSERT.
func (in *ingestInstance) ladder(tr *tracer, rc runConfig) error {
	rowsPerRep := 200
	if rc.tiny {
		rowsPerRep = 20
	}
	tab, err := in.db.Table("t")
	if err != nil {
		return err
	}
	if err := timeIndexBuild(tr, tab.Inner()); err != nil {
		return err
	}
	opt := pager.Options{PoolPages: in.opt.PoolPages, Sync: in.opt.Sync, CheckpointBytes: in.opt.CheckpointBytes}
	store, err := pager.Open(filepath.Join(in.dir, "ladder"), opt)
	if err != nil {
		return err
	}
	defer store.Close()
	schema := []storage.Column{{Name: "id", Type: storage.TInt64}, {Name: "name", Type: storage.TString}, {Name: "geom", Type: storage.TGeometry}}
	scratch, err := storage.OpenTable("scratch", schema, store.Space(1))
	if err != nil {
		return err
	}
	tree := rtree.New(0)
	eng := sqlmini.NewEngineOn(in.db)
	cli, err := wire.Dial(in.ln.addr)
	if err != nil {
		return err
	}
	defer cli.Close()

	// Every run of a rung takes fresh rows: the pool's geometries round
	// robin, under ids far above anything the writer reached. The ladder
	// runs on the untraced stack after its timed half; nothing is verified
	// there.
	n := 0
	fresh := func() (id int64, g int) {
		n++
		return int64(1)<<40 + int64(n), n % len(in.pool)
	}
	each := func(fn func(id int64, g int) error) func() error {
		return func() error {
			for i := 0; i < rowsPerRep; i++ {
				if err := fn(fresh()); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := tr.climb("ingest ladder", rc, []step{
		{"geom.wkt", each(func(_ int64, g int) error {
			_, err := geom.ParseWKT(in.wkts[g])
			return err
		})},
		{"storage.insert", each(func(id int64, g int) error {
			_, err := scratch.Insert(storage.Row{storage.Int(id), storage.Str("ladder"), storage.Geom(in.pool[g])})
			return err
		})},
		{"rtree.insert", each(func(id int64, g int) error {
			return tree.Insert(rtree.Item{MBR: in.mbrs[g], ID: storage.RowID{Page: uint32(id), Slot: 1}})
		})},
		{"sqlmini.insert", each(func(id int64, g int) error {
			_, err := eng.Execute(insertSQL("t", id, "ladder", in.wkts[g]))
			return err
		})},
		{"wire.insert", each(func(id int64, g int) error {
			_, _, err := execOp(cli, insertSQL("t", id, "ladder", in.wkts[g]))
			return err
		})},
	}); err != nil {
		return err
	}
	us := func(rung string) float64 { return tr.med(rung) / 1e3 / float64(rowsPerRep) }
	tr.set("geom.wkt_parse_us", us("geom.wkt"))
	tr.set("storage.insert_us_per_row", us("storage.insert"))
	tr.set("rtree.insert_us_per_row", us("rtree.insert"))
	tr.set("sqlmini.self_us_per_insert", us("sqlmini.insert")-us("storage.insert")-us("rtree.insert"))
	tr.set("server.self_us_per_insert", us("wire.insert")-us("sqlmini.insert"))
	tr.set("wire.round_trips_per_stmt", 1)
	tr.set("ladder.wire_ms", us("wire.insert")/1e3)
	return nil
}

// ladder prices the router: the join statement and a window sample on a
// single node loaded with the same statements (every rung of the join
// and lookup ladders), then the same statements through the router.
func (ci *clusterInstance) ladder(tr *tracer, rc runConfig) error {
	db := spatialtf.Open()
	eng := sqlmini.NewEngineOn(db)
	for _, sql := range ci.load {
		if _, err := eng.Execute(sql); err != nil {
			return fmt.Errorf("single-node load: %w", err)
		}
	}
	ln, err := serveDB(db)
	if err != nil {
		return err
	}
	defer ln.shutdown()
	def := clusterJoin
	rc.shortLadder = true
	if err := joinLadder(tr, db, ln.addr, def, rc); err != nil {
		return err
	}
	if err := lookupLadder(tr, db, ln.addr, []string{"bl", "br"}, rc); err != nil {
		return err
	}

	cli, err := wire.Dial(ci.router.addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	gen := newWindowGen(rc.seed+99, "bl", "br")
	sample := 200
	if rc.tiny {
		sample = 20
	}
	windows := make([]op, sample)
	for i := range windows {
		windows[i] = gen.relate(false, secondary)
	}
	if err := tr.climb("router ladder", rc, []step{
		{"router.join", func() error {
			_, _, err := execOp(cli, def.sql(false))
			return err
		}},
		{"router.lookup", func() error {
			for i := range windows {
				if _, _, err := execOp(cli, windows[i].sql); err != nil {
					return err
				}
			}
			return nil
		}},
	}); err != nil {
		return err
	}
	tr.set("cluster.self_ms", tr.med("router.join")/1e6-tr.values["ladder.wire_ms"])
	tr.set("cluster.self_us_per_lookup", tr.med("router.lookup")/1e3/float64(sample)-tr.values["ladder.lookup_wire_us"])
	// The statement the workload's primary_p50_ms times goes through the
	// router, so that is the rung to hold against it.
	tr.set("ladder.wire_ms", tr.med("router.join")/1e6)
	return nil
}
