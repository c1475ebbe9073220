package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/sqlmini"
)

// ingestInstance is the durable stack of ingest_mixed plus the model of
// what its writes were acknowledged.
type ingestInstance struct {
	dir    string
	opt    spatialtf.DirOptions
	db     *spatialtf.DB
	ln     *listener
	pool   []geom.Geometry // block groups the writes cycle through
	mbrs   []geom.MBR
	wkts   []string
	preset int // rows loaded before the server starts (ids 0..preset-1)
	seed   int64
}

func setupIngestMixed(rc runConfig) (*instance, error) {
	// poolGeoms block groups are re-observed round-robin under fresh ids;
	// poolPages is about a sixth of the heap pages a full-length run ends
	// with, so the pool evicts throughout.
	poolGeoms, poolPages, checkpointBytes, checkOneIn, stmts := 4096, 4096, int64(2<<20), 50, 90000
	if rc.tiny {
		poolGeoms, poolPages, checkpointBytes, checkOneIn, stmts = 96, 16, 64<<10, 5, 450
	}
	in := &ingestInstance{
		dir:    filepath.Join(rc.workDir, fmt.Sprintf("ingest-%d-%d", os.Getpid(), time.Now().UnixNano())),
		preset: poolGeoms,
		seed:   rc.seed,
	}
	in.opt = spatialtf.DirOptions{
		PoolPages:       poolPages,
		Sync:            spatialtf.SyncBatch, // default 25 ms group-commit window
		CheckpointBytes: checkpointBytes,
		Telemetry:       rc.tr.registry(),
	}
	ds := spatialtf.BlockGroups(poolGeoms, rc.seed)
	in.pool = ds.Geoms
	in.mbrs = make([]geom.MBR, len(in.pool))
	in.wkts = make([]string, len(in.pool))
	for i, g := range in.pool {
		in.mbrs[i] = geom.MBROf(g)
		in.wkts[i] = geom.MarshalWKT(g)
	}
	db, err := spatialtf.OpenDir(in.dir, in.opt)
	if err != nil {
		return nil, err
	}
	in.db = db
	fail := func(err error) (*instance, error) {
		in.close()
		return nil, err
	}
	tab, err := db.CreateSpatialTable("t")
	if err != nil {
		return fail(err)
	}
	for i, g := range in.pool {
		if _, err := tab.Insert(spatialtf.Int(int64(i)), spatialtf.Str(rowName(int64(i))), spatialtf.Geom(g)); err != nil {
			return fail(err)
		}
	}
	if _, err := db.CreateIndex("t_idx", "t", spatialtf.RTree, spatialtf.IndexOptions{Parallel: 2}); err != nil {
		return fail(err)
	}
	if in.ln, err = serveDB(db); err != nil {
		return fail(err)
	}
	// No warm-up: a warm-up write would be an acknowledged write the model
	// below never saw, and 69 000 statements do not notice a cold first few.
	return &instance{
		addr:  in.ln.addr,
		plan:  clientPlan{src: in.client(checkOneIn), composed: true},
		stmts: stmts,
		sizes: map[string]any{
			"blockgroup_pool": poolGeoms, "preloaded_rows": in.preset,
			"pool_pages": poolPages, "flush_policy": "SyncBatch, 25 ms group commit",
			"checkpoint_bytes": checkpointBytes, "write_mix": "90% INSERT, 5% UPDATE name, 5% DELETE",
			"statement_order": "write, write, window read", "reads_checked_one_in": checkOneIn,
		},
		verify: in.verify,
		ladder: func(tr *tracer, rc runConfig) error { return in.ladder(tr, rc) },
		close:  in.close,
	}, nil
}

func rowName(id int64) string { return "w" + strconv.FormatInt(id, 10) }

// rowBytes is the size of a row's user data as stored: the geometry's
// binary image, the name and the 8-byte id.
func (in *ingestInstance) rowBytes(id int64, name string) int {
	return geom.BinarySize(in.pool[id%int64(len(in.pool))]) + len(name) + 8
}

// client composes the statements on demand from seeded generators: two
// writes, then a window read of the table being written, and so on. The
// i-th call always yields the same statement. One client in one loop
// rather than a writer beside a reader: two clients on the benchmark's
// one processor only queue behind each other, so each latency would
// include the other client's turn.
func (in *ingestInstance) client(checkOneIn int) opSource {
	gen := newWindowGen(in.seed+3, "t")
	reads := newWindowGen(in.seed+7, "t")
	rng := gen.rng
	next := int64(in.preset)
	n := 0
	return func(i int) *op {
		if i%3 == 2 {
			o := reads.relate(reads.rng.Intn(checkOneIn) == 0, secondary)
			return &o
		}
		n++
		o := &op{class: primary, check: true}
		r := rng.Intn(100)
		if r < 90 {
			id := next
			next++
			o.q = query{kind: qInsert, id: id, name: rowName(id), bytes: in.rowBytes(id, rowName(id))}
			o.sql = insertSQL("t", id, o.q.name, in.wkts[id%int64(len(in.wkts))])
			return o
		}
		side := 2 + rng.Float64()*4
		cx, cy := gen.centre()
		wkt := rectWKT(cx-side/2, cy-side/2, cx+side/2, cy+side/2)
		o.q = query{kind: qDelete, g: mustWKT(wkt)}
		o.sql = fmt.Sprintf("DELETE FROM t WHERE sdo_relate(geom, '%s', 'mask=anyinteract') = 'TRUE'", wkt)
		if r < 95 {
			o.q.kind, o.q.name = qUpdate, "u"+strconv.Itoa(n)
			o.sql = fmt.Sprintf("UPDATE t SET name = '%s' WHERE sdo_relate(geom, '%s', 'mask=anyinteract') = 'TRUE'", o.q.name, wkt)
		}
		return o
	}
}

// ingestModel is the in-memory model of the table: what the
// acknowledged writes add up to.
type ingestModel struct {
	in    *ingestInstance
	ids   []int64
	names []string
	mbrs  []geom.MBR
}

func (m *ingestModel) add(id int64, name string) {
	m.ids = append(m.ids, id)
	m.names = append(m.names, name)
	m.mbrs = append(m.mbrs, m.in.mbrs[id%int64(len(m.in.mbrs))])
}

// match calls fn with the index of every live row interacting with the
// window, highest index first so fn may swap-remove.
func (m *ingestModel) match(w geom.Geometry, fn func(i int)) int {
	wm := geom.MBROf(w)
	n := 0
	for i := len(m.ids) - 1; i >= 0; i-- {
		if m.mbrs[i].Intersects(wm) && geom.Relate(m.in.pool[m.ids[i]%int64(len(m.in.pool))], w, geom.MaskAnyInteract) {
			n++
			fn(i)
		}
	}
	return n
}

func (m *ingestModel) remove(i int) {
	last := len(m.ids) - 1
	m.ids[i], m.names[i], m.mbrs[i] = m.ids[last], m.names[last], m.mbrs[last]
	m.ids, m.names, m.mbrs = m.ids[:last], m.names[:last], m.mbrs[:last]
}

// apply replays one acknowledged write and reports whether the server's
// row count agreed with the model's.
func (m *ingestModel) apply(a answer) bool {
	q := &a.op.q
	switch q.kind {
	case qInsert:
		m.add(q.id, q.name)
		return a.rows == 1
	case qUpdate:
		return a.rows == m.match(q.g, func(i int) { m.names[i] = q.name })
	case qDelete:
		return a.rows == m.match(q.g, m.remove)
	default: // a window read between the writes
		var sum uint64
		n := m.match(q.g, func(i int) { sum += idHash(int(m.ids[i])) })
		return a.rows == n && a.sum == sum
	}
}

// verify replays the acknowledged writes into the model, comparing the
// checked reads with it on the way, then closes the directory, reopens it
// and compares the recovered table with the model.
func (in *ingestInstance) verify(log *clientLog) (verdict, error) {
	var v verdict
	m := &ingestModel{in: in}
	for id := 0; id < in.preset; id++ {
		m.add(int64(id), rowName(int64(id)))
	}
	for _, a := range log.answers {
		v.checked++
		if !m.apply(a) {
			v.wrong++
			v.note("statement kind %d returned %d rows, the model disagrees", a.op.q.kind, a.rows)
		}
	}

	tab, err := in.db.Table("t")
	if err != nil {
		return v, err
	}
	heapPages := tab.Inner().PageCount()
	if err := in.db.Checkpoint(); err != nil {
		return v, err
	}
	in.ln.shutdown()
	in.ln = nil
	if err := in.db.Close(); err != nil {
		return v, err
	}
	in.db = nil
	dirBytes, err := dirSize(in.dir)
	if err != nil {
		return v, err
	}

	t0 := time.Now()
	opt := in.opt
	opt.Telemetry = nil
	db, err := spatialtf.OpenDir(in.dir, opt)
	if err != nil {
		return v, err
	}
	in.db = db
	eng := sqlmini.NewEngineOn(db)
	probe := newWindowGen(in.seed+11, "t")
	first := probe.relate(false, 0)
	if _, err := eng.Execute(first.sql); err != nil {
		return v, err
	}
	reopen := time.Since(t0)

	res, err := eng.Execute("SELECT count(*) FROM t")
	if err != nil {
		return v, err
	}
	v.checked++
	if res.Count != len(m.ids) {
		v.wrong++
		v.note("after reopen the table has %d rows, the model %d", res.Count, len(m.ids))
	}
	for i := 0; i < 20; i++ {
		side := 10 + probe.rng.Float64()*30
		cx, cy := probe.centre()
		wkt := rectWKT(cx-side/2, cy-side/2, cx+side/2, cy+side/2)
		res, err := eng.Execute(fmt.Sprintf("SELECT id, name FROM t WHERE sdo_relate(geom, '%s', 'mask=anyinteract') = 'TRUE'", wkt))
		if err != nil {
			return v, err
		}
		var got, want uint64
		for _, r := range res.Rows {
			got += hashCells(r...)
		}
		n := m.match(mustWKT(wkt), func(i int) {
			want += hashCells(strconv.FormatInt(m.ids[i], 10), m.names[i])
		})
		v.checked++
		if got != want || n != len(res.Rows) {
			v.wrong++
			v.note("after reopen window %d returned %d rows, the model %d", i, len(res.Rows), n)
		}
	}

	var liveBytes int64
	for i, id := range m.ids {
		liveBytes += int64(in.rowBytes(id, m.names[i]))
	}
	v.extra = map[string]float64{
		"pager.reopen_s":  reopen.Seconds(),
		"pager.space_amp": float64(dirBytes) / float64(liveBytes),
	}
	v.stamp = map[string]any{"final_heap_pages": heapPages, "final_rows": len(m.ids), "data_dir_bytes": dirBytes}
	return v, nil
}

func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

func (in *ingestInstance) close() {
	if in.ln != nil {
		in.ln.shutdown()
		in.ln = nil
	}
	if in.db != nil {
		_ = in.db.Close() // the directory is deleted next; nothing to save
		in.db = nil
	}
	_ = os.RemoveAll(in.dir) // best-effort scratch cleanup
}
