package sqlmini

import (
	"fmt"
	"strings"
	"testing"

	"spatialtf"
)

func exec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	r, err := e.Execute(sql)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return r
}

func execErr(t *testing.T, e *Engine, sql string) error {
	t.Helper()
	_, err := e.Execute(sql)
	if err == nil {
		t.Fatalf("Execute(%q): expected error", sql)
	}
	return err
}

func setupCitiesRivers(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	exec(t, e, "CREATE TABLE cities (id INT, name VARCHAR, geom GEOMETRY)")
	exec(t, e, "CREATE TABLE rivers (id INT, name VARCHAR, geom GEOMETRY)")
	exec(t, e, "INSERT INTO cities VALUES (1, 'springfield', 'POLYGON ((10 10, 14 10, 14 14, 10 14, 10 10))')")
	exec(t, e, "INSERT INTO cities VALUES (2, 'shelbyville', 'POLYGON ((20 12, 23 12, 23 16, 20 16, 20 12))')")
	exec(t, e, "INSERT INTO cities VALUES (3, 'ogdenville', 'POLYGON ((40 40, 44 40, 44 45, 40 45, 40 40))')")
	exec(t, e, "INSERT INTO rivers VALUES (1, 'long_river', 'LINESTRING (5 12, 16 13, 30 14, 50 15)')")
	exec(t, e, "INSERT INTO rivers VALUES (2, 'short_creek', 'LINESTRING (41 20, 42 30, 43 41)')")
	exec(t, e, "CREATE INDEX cities_idx ON cities(geom) INDEXTYPE IS RTREE")
	exec(t, e, "CREATE INDEX rivers_idx ON rivers(geom) INDEXTYPE IS RTREE")
	return e
}

func TestDDLAndDML(t *testing.T) {
	e := setupCitiesRivers(t)
	r := exec(t, e, "SELECT count(*) FROM cities")
	if r.Count != 3 {
		t.Fatalf("count = %d", r.Count)
	}
	r = exec(t, e, "SELECT name FROM cities")
	if len(r.Rows) != 3 || len(r.Columns) != 1 || r.Columns[0] != "name" {
		t.Fatalf("projection: %+v", r)
	}
	r = exec(t, e, "SELECT * FROM rivers")
	if len(r.Rows) != 2 || len(r.Columns) != 3 {
		t.Fatalf("star projection: %+v", r)
	}
}

func TestSdoRelateQuery(t *testing.T) {
	e := setupCitiesRivers(t)
	r := exec(t, e, "SELECT name FROM cities WHERE sdo_relate(geom, 'POLYGON ((8 8, 25 8, 25 18, 8 18, 8 8))', 'mask=anyinteract') = 'TRUE'")
	if len(r.Rows) != 2 {
		t.Fatalf("relate rows: %+v", r.Rows)
	}
	names := map[string]bool{}
	for _, row := range r.Rows {
		names[row[0]] = true
	}
	if !names["springfield"] || !names["shelbyville"] {
		t.Fatalf("wrong cities: %v", names)
	}
	// Alias form a.geom.
	r = exec(t, e, "SELECT count(*) FROM cities a WHERE sdo_relate(a.geom, 'POINT (12 12)', 'mask=contains') = 'TRUE'")
	if r.Count != 1 {
		t.Fatalf("contains count = %d", r.Count)
	}
}

func TestSdoWithinDistanceQuery(t *testing.T) {
	e := setupCitiesRivers(t)
	r := exec(t, e, "SELECT count(*) FROM cities WHERE sdo_within_distance(geom, 'POINT (30 14)', 'distance=8')")
	if r.Count != 1 {
		t.Fatalf("within-distance count = %d", r.Count)
	}
}

func TestSpatialJoinTableFunction(t *testing.T) {
	e := setupCitiesRivers(t)
	// The paper's query form, §4.
	r := exec(t, e, "SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract'))")
	if r.Count != 3 {
		t.Fatalf("join count = %d, want 3", r.Count)
	}
	// Projection of the rowid pair columns.
	r = exec(t, e, "SELECT rid1, rid2 FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract'))")
	if len(r.Rows) != 3 || r.Columns[0] != "rid1" || r.Columns[1] != "rid2" {
		t.Fatalf("join projection: %+v", r)
	}
	// Parallel degree argument.
	r = exec(t, e, "SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract', 2))")
	if r.Count != 3 {
		t.Fatalf("parallel join count = %d", r.Count)
	}
	// Within-distance join.
	r = exec(t, e, "SELECT count(*) FROM TABLE(spatial_join('cities','geom','cities','geom','distance=7'))")
	if r.Count < 3 {
		t.Fatalf("distance self-join count = %d", r.Count)
	}
}

func TestSpatialJoinAlgoHint(t *testing.T) {
	e := setupCitiesRivers(t)
	// Every algo hint must produce the same result set as the default.
	for _, hint := range []string{"grid", "subtree", "nested", "auto"} {
		r := exec(t, e, "SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','algo="+hint+"', 4))")
		if r.Count != 3 {
			t.Fatalf("algo=%s join count = %d, want 3", hint, r.Count)
		}
	}
	// Distance spec composes with the hint.
	r := exec(t, e, "SELECT count(*) FROM TABLE(spatial_join('cities','geom','cities','geom','distance=7','algo=grid'))")
	if r.Count < 3 {
		t.Fatalf("grid distance self-join count = %d", r.Count)
	}
	// The hint vocabulary is sjoin.ParseAlgo's: what the Go facade's
	// JoinOptions.Algo rejects, SQL rejects, and an empty hint names no
	// algorithm.
	for _, bad := range []string{"bogus", "rtree"} {
		execErr(t, e, "SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','algo="+bad+"'))")
		if _, err := e.DB().SpatialJoin("cities", "cities_idx", "rivers", "rivers_idx", spatialtf.JoinOptions{Algo: bad}); err == nil {
			t.Errorf("facade accepted Algo %q", bad)
		}
	}
	execErr(t, e, "SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','algo='))")
	execErr(t, e, "SELECT count(*) FROM TABLE(spatial_join('cities','geom','rivers','geom','anyinteract','parallel=2'))")
}

func TestQuadtreeIndexViaSQL(t *testing.T) {
	e := setupCitiesRivers(t)
	exec(t, e, "CREATE INDEX cities_qt ON cities(geom) INDEXTYPE IS QUADTREE PARAMETERS('level=7 bounds=0,0,100,100') PARALLEL 2")
	// The relate executor may use either index; result must match.
	r := exec(t, e, "SELECT count(*) FROM cities WHERE sdo_relate(geom, 'POLYGON ((8 8, 25 8, 25 18, 8 18, 8 8))', 'mask=anyinteract')")
	if r.Count != 2 {
		t.Fatalf("count with quadtree present = %d", r.Count)
	}
}

func TestErrors(t *testing.T) {
	e := NewEngine()
	execErr(t, e, "DROP TABLE x")
	execErr(t, e, "CREATE TABLE t (a BOGUSTYPE)")
	exec(t, e, "CREATE TABLE t (a INT, g GEOMETRY)")
	execErr(t, e, "INSERT INTO t VALUES (1)")                  // arity
	execErr(t, e, "INSERT INTO t VALUES ('x', 'POINT (0 0)')") // type
	execErr(t, e, "INSERT INTO t VALUES (1, 'NOT A WKT')")     // geometry
	execErr(t, e, "SELECT nope FROM t")                        // column
	execErr(t, e, "SELECT count(*) FROM missing")              // table
	exec(t, e, "INSERT INTO t VALUES (1, 'POINT (1 1)')")
	// Query without an index.
	execErr(t, e, "SELECT count(*) FROM t WHERE sdo_relate(g, 'POINT (1 1)', 'mask=anyinteract')")
	execErr(t, e, "CREATE INDEX i ON t(g) INDEXTYPE IS HASHMAP")
	execErr(t, e, "CREATE INDEX i ON t(g) INDEXTYPE IS RTREE PARAMETERS('fanout=12abc')") // trailing garbage
	execErr(t, e, "CREATE INDEX i ON t(g) INDEXTYPE IS RTREE PARAMETERS('fanout=')")
	execErr(t, e, "CREATE INDEX i ON t(g) INDEXTYPE IS QUADTREE PARAMETERS('level=7x bounds=0,0,100,100')")
	execErr(t, e, "CREATE INDEX i ON t(g) INDEXTYPE IS QUADTREE PARAMETERS('level=0.5 bounds=0,0,100,100')")
	execErr(t, e, "SELECT count(*) FROM TABLE(nosuch_fn('a','b','c','d','e'))")
	execErr(t, e, "SELECT count(*) FROM TABLE(spatial_join('a','b','c'))") // arity
	execErr(t, e, "SELECT count(*) FROM t WHERE sdo_relate(g, 'POINT (1 1)', 'mask=anyinteract') = 'FALSE'")
	execErr(t, e, "SELECT count(*) FROM t extra tokens here")
}

func TestParserDetails(t *testing.T) {
	// Case insensitivity and quoting.
	stmt, err := Parse("select COUNT ( * ) from T where SDO_RELATE(G, 'POINT (1 1)', 'MASK=TOUCH') = 'true'")
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := stmt.(Select)
	if !ok || !sel.Count || sel.From.Table != "t" || sel.Where == nil || sel.Where.Mask != "touch" {
		t.Fatalf("parsed %+v", stmt)
	}
	// Escaped quotes in strings.
	stmt, err = Parse("INSERT INTO t VALUES ('it''s', 1)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(Insert)
	if ins.Values[0].Str != "it's" {
		t.Fatalf("escaped string = %q", ins.Values[0].Str)
	}
	// spatial_join distance spec.
	stmt, err = Parse("SELECT count(*) FROM TABLE(spatial_join('a','g','b','g','distance=2.5'))")
	if err != nil {
		t.Fatal(err)
	}
	call := stmt.(Select).From.Join
	if call.Distance != 2.5 || call.Mask != "anyinteract" {
		t.Fatalf("join call %+v", call)
	}
	// spatial_join algo hint, with and without a trailing parallel degree.
	stmt, err = Parse("SELECT count(*) FROM TABLE(spatial_join('a','g','b','g','anyinteract','ALGO=GRID', 8))")
	if err != nil {
		t.Fatal(err)
	}
	call = stmt.(Select).From.Join
	if call.Algo != "grid" || call.Parallel != 8 || call.Mask != "anyinteract" {
		t.Fatalf("join call %+v", call)
	}
	stmt, err = Parse("SELECT count(*) FROM TABLE(spatial_join('a','g','b','g','distance=1','algo=auto'))")
	if err != nil {
		t.Fatal(err)
	}
	call = stmt.(Select).From.Join
	if call.Algo != "auto" || call.Distance != 1 {
		t.Fatalf("join call %+v", call)
	}
	// Unterminated string.
	if _, err := Parse("INSERT INTO t VALUES ('oops)"); err == nil {
		t.Fatalf("unterminated string accepted")
	}
	// Numbers with exponents.
	stmt, err = Parse("INSERT INTO t VALUES (1.5e2)")
	if err != nil {
		t.Fatal(err)
	}
	if v := stmt.(Insert).Values[0]; !v.IsNum || v.Num != 150 {
		t.Fatalf("exponent literal = %+v", v)
	}
}

// TestParseRejectsNonFiniteDistance: a distance spec must be a finite,
// non-negative number in both places it appears. An infinite or NaN
// distance reaches the cluster router's grid arithmetic unchecked.
func TestParseRejectsNonFiniteDistance(t *testing.T) {
	for _, d := range []string{"inf", "+Inf", "infinity", "nan", "NaN", "-1", "-inf", "1e309"} {
		for _, sql := range []string{
			fmt.Sprintf("SELECT count(*) FROM TABLE(spatial_join('a','g','b','g','distance=%s'))", d),
			fmt.Sprintf("SELECT id FROM t WHERE sdo_within_distance(g, 'POINT (1 1)', 'distance=%s') = 'TRUE'", d),
		} {
			if _, err := Parse(sql); err == nil || !strings.Contains(err.Error(), "bad distance") {
				t.Errorf("%s: err = %v, want a bad distance error", sql, err)
			}
		}
	}
	for _, d := range []string{"0", "2.5", "1e300"} {
		if _, err := Parse(fmt.Sprintf("SELECT count(*) FROM TABLE(spatial_join('a','g','b','g','distance=%s'))", d)); err != nil {
			t.Errorf("distance=%s: %v", d, err)
		}
	}
}

func TestResultFormat(t *testing.T) {
	r := &Result{Columns: []string{"a", "long_column"}, Rows: [][]string{{"1", strings.Repeat("x", 100)}}}
	out := r.Format()
	if !strings.Contains(out, "a") || !strings.Contains(out, "...") || !strings.Contains(out, "(1 rows)") {
		t.Fatalf("format output:\n%s", out)
	}
	msg := &Result{Message: "done"}
	if msg.Format() != "done\n" {
		t.Fatalf("message format = %q", msg.Format())
	}
}

func TestSdoNNQuery(t *testing.T) {
	e := setupCitiesRivers(t)
	r := exec(t, e, "SELECT name FROM cities WHERE sdo_nn(geom, 'POINT (9 9)', 'k=2')")
	if len(r.Rows) != 2 {
		t.Fatalf("sdo_nn rows: %+v", r.Rows)
	}
	// Ranking order: springfield (closest) then shelbyville.
	if r.Rows[0][0] != "springfield" || r.Rows[1][0] != "shelbyville" {
		t.Fatalf("wrong ranking: %+v", r.Rows)
	}
	execErr(t, e, "SELECT name FROM cities WHERE sdo_nn(geom, 'POINT (9 9)', 'k=0')")
	execErr(t, e, "SELECT name FROM cities WHERE sdo_nn(geom, 'POINT (9 9)', 'bogus')")
}

func TestDeleteStatement(t *testing.T) {
	e := setupCitiesRivers(t)
	// Delete cities intersecting a window; index maintenance must make
	// later queries consistent.
	r := exec(t, e, "DELETE FROM cities WHERE sdo_relate(geom, 'POLYGON ((8 8, 25 8, 25 18, 8 18, 8 8))', 'mask=anyinteract')")
	if !strings.Contains(r.Message, "2 rows deleted") {
		t.Fatalf("delete message: %q", r.Message)
	}
	r = exec(t, e, "SELECT count(*) FROM cities")
	if r.Count != 1 {
		t.Fatalf("count after delete = %d", r.Count)
	}
	r = exec(t, e, "SELECT count(*) FROM cities WHERE sdo_relate(geom, 'POLYGON ((8 8, 25 8, 25 18, 8 18, 8 8))', 'mask=anyinteract')")
	if r.Count != 0 {
		t.Fatalf("deleted rows still indexed: %d", r.Count)
	}
	// Unconditional delete.
	r = exec(t, e, "DELETE FROM rivers")
	if !strings.Contains(r.Message, "2 rows deleted") {
		t.Fatalf("delete-all message: %q", r.Message)
	}
}

func TestUpdateStatement(t *testing.T) {
	e := setupCitiesRivers(t)
	// Move springfield far away; the spatial index must follow.
	r := exec(t, e, "UPDATE cities SET geom = 'POLYGON ((90 90, 94 90, 94 94, 90 94, 90 90))', name = 'springfield_moved' WHERE sdo_relate(geom, 'POINT (12 12)', 'mask=contains')")
	if !strings.Contains(r.Message, "1 rows updated") {
		t.Fatalf("update message: %q", r.Message)
	}
	r = exec(t, e, "SELECT name FROM cities WHERE sdo_relate(geom, 'POLYGON ((89 89, 95 89, 95 95, 89 95, 89 89))', 'mask=anyinteract')")
	if len(r.Rows) != 1 || r.Rows[0][0] != "springfield_moved" {
		t.Fatalf("moved city not found at new location: %+v", r.Rows)
	}
	r = exec(t, e, "SELECT count(*) FROM cities WHERE sdo_relate(geom, 'POINT (12 12)', 'mask=contains')")
	if r.Count != 0 {
		t.Fatalf("old location still indexed")
	}
	// Non-spatial update.
	r = exec(t, e, "UPDATE cities SET id = 99")
	if !strings.Contains(r.Message, "3 rows updated") {
		t.Fatalf("update-all message: %q", r.Message)
	}
	// Errors.
	execErr(t, e, "UPDATE cities SET nope = 1")
	execErr(t, e, "UPDATE cities SET id = 'str'")
	execErr(t, e, "UPDATE cities SET geom = 'BROKEN WKT'")
	execErr(t, e, "DELETE FROM missing")
}

func TestEngineOnSharedDB(t *testing.T) {
	e := NewEngine()
	exec(t, e, "CREATE TABLE t (a INT, g GEOMETRY)")
	// A second engine over the same DB sees the table.
	e2 := NewEngineOn(e.DB())
	exec(t, e2, "INSERT INTO t VALUES (1, 'POINT (0 0)')")
	r := exec(t, e, "SELECT count(*) FROM t")
	if r.Count != 1 {
		t.Fatalf("shared DB count = %d", r.Count)
	}
}
