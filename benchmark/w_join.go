package main

import (
	"fmt"

	"spatialtf"
	"spatialtf/internal/geom"
)

// joinDef is one spatial_join statement form of a join workload.
type joinDef struct {
	name string // reference key and trace label
	a, b string
	pred string // 'anyinteract' or 'distance=d'
	dist float64
	algo string // 'algo=' hint; "" keeps the default serial R-tree join
	keys string // 'keys=' hint; "" projects rowids
	// workers is the statement's trailing degree-of-parallelism argument;
	// 0 leaves it out, and the plan is then made for GOMAXPROCS workers.
	workers int
}

// sql renders the statement: the streamed projection, or its count(*).
func (j joinDef) sql(count bool) string {
	proj, hints := "rid1, rid2", ""
	if j.keys != "" {
		proj, hints = "key1, key2", ",'keys="+j.keys+"'"
	}
	if j.algo != "" {
		hints += ",'algo=" + j.algo + "'"
	}
	if j.workers > 0 {
		hints += fmt.Sprintf(", %d", j.workers)
	}
	if count {
		proj = "count(*)"
	}
	return fmt.Sprintf("SELECT %s FROM TABLE(spatial_join('%s','geom','%s','geom','%s'%s))", proj, j.a, j.b, j.pred, hints)
}

func setupJoinStream(rc runConfig) (*instance, error) {
	n, stmts := 16000, 320
	if rc.tiny {
		n, stmts = 600, 40
	}
	db := spatialtf.Open()
	rc.tr.attachDB(db)
	if _, err := loadIndexed(db, "stars", starPoints(n, rc.seed)); err != nil {
		return nil, err
	}
	// Two workers pinned in the statement: the cost model then picks the
	// grid-partitioned parallel join (the paper's parallel table function)
	// whatever GOMAXPROCS is. On the benchmark's one processor the two
	// instances take turns, so this prices the plan's work, not its
	// speed-up. join_refine leaves the worker count out and gets the serial
	// R-tree join: one workload on each side of the plan choice.
	self := joinDef{name: "stars_self", a: "stars", b: "stars", pred: "distance=1.5", dist: 1.5, algo: "auto", workers: 2}
	// The streamed join alternates with its count(*) form: the same sjoin
	// work without the row pipeline, through sqlmini's materialising
	// executor.
	ops := make([]op, 64)
	for i := range ops {
		count := i%2 == 1
		ops[i] = op{sql: self.sql(count), check: true,
			q: query{kind: qJoin, table: self.name}}
		if count {
			ops[i].class = secondary
			ops[i].q.kind = qJoinCount
		}
	}
	return joinWorkload(db, [2]joinDef{self, self}, ops, stmts, map[string]any{"stars": n})
}

// starPoints is the star catalogue as points: the centre of each of
// Stars(n)'s small polygons. A distance self-join over them is a
// catalogue cross-match, whose exact predicate (point to point) costs
// almost nothing, so the layers around it carry the statement.
func starPoints(n int, seed int64) spatialtf.Dataset {
	ds := spatialtf.Stars(n, seed)
	for i, g := range ds.Geoms {
		c := geom.MBROf(g).Center()
		ds.Geoms[i] = geom.NewPoint(c.X, c.Y)
	}
	return ds
}

func setupJoinRefine(rc runConfig) (*instance, error) {
	// Many block groups over few, large zones: most block groups meet one
	// zone, so the statement's work is a sum of many like terms and moves
	// little with the seed (300 block groups over 1000 counties moved 10 %).
	nBG, nZones, nCounties, stmts := 350, 256, 1000, 290
	if rc.tiny {
		nBG, nZones, nCounties, stmts = 40, 16, 100, 40
	}
	db := spatialtf.Open()
	rc.tr.attachDB(db)
	if _, err := loadIndexed(db, "bg", spatialtf.BlockGroups(nBG, rc.seed)); err != nil {
		return nil, err
	}
	if _, err := loadIndexed(db, "zones", spatialtf.Counties(nZones, rc.seed+2)); err != nil {
		return nil, err
	}
	if _, err := loadIndexed(db, "counties", spatialtf.Counties(nCounties, rc.seed+1)); err != nil {
		return nil, err
	}
	cross := joinDef{name: "bg_x_zones", a: "bg", b: "zones", pred: "anyinteract", algo: "auto"}
	near := joinDef{name: "counties_d7", a: "counties", b: "counties", pred: "distance=7", dist: 7, algo: "auto"}
	ops := make([]op, 64)
	for i := range ops {
		j, class := cross, uint8(primary)
		if i%2 == 1 {
			j, class = near, secondary
		}
		ops[i] = op{sql: j.sql(false), class: class, check: true,
			q: query{kind: qJoin, table: j.name}}
	}
	return joinWorkload(db, [2]joinDef{cross, near}, ops, stmts,
		map[string]any{"blockgroups": nBG, "zones": nZones, "counties": nCounties})
}

// joinWorkload serves db and plans the client streaming ops.
func joinWorkload(db *spatialtf.DB, joins [2]joinDef, ops []op, stmts int, sizes map[string]any) (*instance, error) {
	ln, err := serveDB(db)
	if err != nil {
		return nil, err
	}
	ref := newReference()
	for _, j := range joins {
		ref.nestedLoopJoin(j.name, db, j.a, j.b, j.dist)
	}
	sizes["op_list"] = len(ops)
	return &instance{
		addr:   ln.addr,
		plan:   clientPlan{src: cycle(ops), warm: 4},
		stmts:  stmts,
		sizes:  sizes,
		verify: ref.check,
		ladder: func(tr *tracer, rc runConfig) error { return joinLadder(tr, db, ln.addr, joins[primary], rc) },
		close:  ln.shutdown,
	}, nil
}
