package main

import (
	"fmt"
	"math/rand"
	"strings"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/server"
)

// benchProcs is the GOMAXPROCS the benchmark is defined at (main.go says
// why); the stamp records it beside nproc.
const benchProcs = 1

// refSeconds is the run length the workloads' statement counts are
// frozen for: a run of --seconds s executes seconds/refSeconds of them.
const refSeconds = 32

// runConfig is one invocation's knobs.
type runConfig struct {
	seed    int64
	seconds float64
	tiny    bool // -scale tiny: test-sized inputs
	maxOps  int  // tests only: statements per lead client, overriding the workload's frozen count
	workDir string
	// tr is the traced run's collector; nil on the untraced run, where
	// none of the program's instruments are attached.
	tr *tracer
	// shortLadder asks the ladder for fewer repetitions per rung.
	shortLadder bool
}

// workload is one row of the benchmark: a serving stack, the clients
// that load it and the checker for what they got back.
type workload struct {
	name string
	why  string
	// classes names the statements behind the primary_*/secondary_*
	// metrics; tail is the percentile reported as *_tail_ms: p90 where a
	// run holds 100 statements of the class (ten beyond it), p99 where it
	// holds thousands.
	classes [2]string
	tail    [2]float64
	// ungated marks a workload BENCHMARK.json does not list, so no change
	// is accepted or rejected on it: it runs, verifies and prints like the
	// others, for whoever works on the layers only it reaches.
	ungated bool
	setup   func(rc runConfig) (*instance, error)
}

// instance is a stack that has been set up and warmed, ready for its
// timed phase.
type instance struct {
	addr string
	plan clientPlan
	// stmts is how many statements the client sends in a run of
	// refSeconds: a fixed count, so both sides of a comparison do the same
	// work and take the same number of samples. It is sized to fill 70 to
	// 85 % of the run on the reference host; the run length only cuts a
	// timed phase off when the host (or the program) is that much slower.
	stmts int
	// sizes are the frozen input sizes and policies, for the stamp.
	sizes map[string]any
	// verify compares the logged answers with reference answers computed
	// now (after the timed phase, so in no metric) and returns how many
	// were checked and how many were wrong.
	verify func(log *clientLog) (verdict, error)
	// ladder runs the traced layer ladder (ladder.go).
	ladder func(tr *tracer, rc runConfig) error
	close  func()
}

var workloads = []workload{
	{
		name:    "join_stream",
		why:     "simple geometries, large result: primary filter, candidate sort, fetch/decode and the row pipeline (tablefunc, sqlmini, server, wire) do the work; geom.Relate does little",
		classes: [2]string{"streamed star cross-match (distance self-join of points)", "count(*) of the same join (no row pipeline)"},
		tail:    [2]float64{90, 90},
		setup:   setupJoinStream,
	},
	{
		name:    "join_refine",
		why:     "complex polygons, small result: the exact-geometry secondary filter dominates and wire does little; bypasses every row-pipeline optimisation",
		classes: [2]string{"blockgroups x zones anyinteract join", "counties self-join distance=7"},
		tail:    [2]float64{90, 90},
		setup:   setupJoinRefine,
	},
	{
		name:    "window_lookup",
		why:     "short indexed lookups: SQL lex/parse/plan, WKT parse, one R-tree descent, cursor open/close and wire round trips dominate; sjoin does nothing",
		classes: [2]string{"sdo_relate window", "sdo_within_distance and sdo_nn"},
		tail:    [2]float64{99, 99},
		setup:   setupWindowLookup,
	},
	{
		name:    "ingest_mixed",
		why:     "durable directory, window reads between the writes: pager (pool eviction, WAL, checkpoints), the heap write path and rtree.Insert do the work while the same code serves the reads",
		classes: [2]string{"INSERT/UPDATE/DELETE", "sdo_relate window on the table being written, one after every two writes"},
		tail:    [2]float64{99, 99},
		// Its medians follow the host's disk, not the program: on one commit
		// they spread 6 to 15 % between runs on the reference host (3 % with
		// the same directory on tmpfs, which a checkout may not use) and 25 %
		// where the benchmark was checked, over any bound the contract allows.
		ungated: true,
		setup:   setupIngestMixed,
	},
	{
		name:    "cluster_mixed",
		why:     "3 shards behind a router: scatter/merge, scoped execution, margin replication and a second wire hop; prices the router and guards cluster-only regressions",
		classes: [2]string{"keyed distance join through the router", "window statements through the router"},
		tail:    [2]float64{90, 99},
		setup:   setupClusterMixed,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// tableData is a loaded table as the verifier sees it: ids and
// geometries, no index.
type tableData struct {
	name  string
	geoms []geom.Geometry // row id i holds geoms[i]
}

// loadIndexed loads ds as table name (ids 0..n-1) and R-tree indexes it.
func loadIndexed(db *spatialtf.DB, name string, ds spatialtf.Dataset) (*tableData, error) {
	if _, err := db.LoadDataset(name, ds); err != nil {
		return nil, err
	}
	if _, err := db.CreateIndex(name+"_idx", name, spatialtf.RTree, spatialtf.IndexOptions{Parallel: 2}); err != nil {
		return nil, err
	}
	return &tableData{name: name, geoms: ds.Geoms}, nil
}

// serveDB fronts db with a default-configured server on loopback.
func serveDB(db *spatialtf.DB) (*listener, error) {
	return serve(server.New(db, server.Config{}))
}

// windowGen makes seeded window, within-distance and nearest statements
// over a set of tables.
type windowGen struct {
	rng    *rand.Rand
	tables []string
}

func newWindowGen(seed int64, tables ...string) *windowGen {
	return &windowGen{rng: rand.New(rand.NewSource(seed)), tables: tables}
}

// centre draws a window centre.
func (g *windowGen) centre() (x, y float64) {
	return g.rng.Float64() * 1000, g.rng.Float64() * 1000
}

func rectWKT(x0, y0, x1, y1 float64) string {
	return fmt.Sprintf("POLYGON ((%.2f %.2f, %.2f %.2f, %.2f %.2f, %.2f %.2f, %.2f %.2f))",
		x0, y0, x1, y0, x1, y1, x0, y1, x0, y0)
}

// mustWKT parses text the generator itself wrote.
func mustWKT(s string) geom.Geometry {
	g, err := geom.ParseWKT(s)
	if err != nil {
		panic(fmt.Sprintf("benchmark generated bad WKT %q: %v", s, err))
	}
	return g
}

// relate returns a window statement with side in [5,20) at a uniform
// centre. The geometry kept for the verifier is parsed back from the
// text, so both sides see the same rounded coordinates.
func (g *windowGen) relate(check bool, class uint8) op {
	side := 5 + g.rng.Float64()*15
	cx, cy := g.centre()
	table := g.tables[g.rng.Intn(len(g.tables))]
	wkt := rectWKT(cx-side/2, cy-side/2, cx+side/2, cy+side/2)
	o := op{
		sql:   fmt.Sprintf("SELECT id FROM %s WHERE sdo_relate(geom, '%s', 'mask=anyinteract') = 'TRUE'", table, wkt),
		class: class, check: check,
	}
	if check {
		o.q = query{kind: qRelate, table: table, wkt: wkt, g: mustWKT(wkt)}
	}
	return o
}

func (g *windowGen) point() string {
	x, y := g.centre()
	return fmt.Sprintf("POINT (%.2f %.2f)", x, y)
}

func (g *windowGen) within(check bool, class uint8) op {
	wkt := g.point()
	d := float64(3 + g.rng.Intn(8))
	table := g.tables[g.rng.Intn(len(g.tables))]
	o := op{
		sql:   fmt.Sprintf("SELECT id FROM %s WHERE sdo_within_distance(geom, '%s', 'distance=%g') = 'TRUE'", table, wkt, d),
		class: class, check: check,
	}
	if check {
		o.q = query{kind: qWithin, table: table, g: mustWKT(wkt), d: d}
	}
	return o
}

func (g *windowGen) nearest(check bool, class uint8) op {
	wkt := g.point()
	table := g.tables[g.rng.Intn(len(g.tables))]
	o := op{
		sql:   fmt.Sprintf("SELECT id FROM %s WHERE sdo_nn(geom, '%s', 'k=5') = 'TRUE'", table, wkt),
		class: class, check: check,
	}
	if check {
		o.q = query{kind: qNearest, table: table, g: mustWKT(wkt), k: 5}
	}
	return o
}

// insertSQL renders the INSERT of one row.
func insertSQL(table string, id int64, name, wkt string) string {
	var b strings.Builder
	b.Grow(len(wkt) + len(table) + len(name) + 48)
	fmt.Fprintf(&b, "INSERT INTO %s VALUES (%d, '%s', '", table, id, name)
	b.WriteString(wkt)
	b.WriteString("')")
	return b.String()
}

// datasetInserts renders the DDL and INSERTs that build ds as table.
func datasetInserts(table string, ds spatialtf.Dataset) []string {
	stmts := []string{
		fmt.Sprintf("CREATE TABLE %s (id INT, name VARCHAR, geom GEOMETRY)", table),
		fmt.Sprintf("CREATE INDEX %s_idx ON %s(geom) INDEXTYPE IS RTREE", table, table),
	}
	for i, g := range ds.Geoms {
		stmts = append(stmts, insertSQL(table, int64(i), fmt.Sprintf("%s-%d", table, i), geom.MarshalWKT(g)))
	}
	return stmts
}
