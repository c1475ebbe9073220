package sqlmini

import (
	"fmt"
	"sync"
	"testing"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// joinCountEngine loads the tables of the count differential, each with
// an R-tree on geom: counties (jp), star polygons (js), and star centres
// as points (jt), whose distance self-join the points and mirror routes
// decide from the index alone.
func joinCountEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	pts := spatialtf.Stars(600, 5)
	for i, g := range pts.Geoms {
		c := geom.MBROf(g).Center()
		pts.Geoms[i] = geom.NewPoint(c.X, c.Y)
	}
	for _, tab := range []struct {
		name string
		ds   spatialtf.Dataset
	}{{"jp", spatialtf.Counties(120, 3)}, {"js", spatialtf.Stars(400, 4)}, {"jt", pts}} {
		if _, err := e.DB().LoadDataset(tab.name, tab.ds); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DB().CreateIndex(tab.name+"_idx", tab.name, spatialtf.RTree, spatialtf.IndexOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// countJoin is one join of the count differential.
type countJoin struct {
	a, b, pred string
	opt        spatialtf.JoinOptions
}

// countJoins is {self, cross, points self} × {nested, subtree, grid} ×
// {1, 2, 4 workers} (the nested loop runs on one).
func countJoins() []countJoin {
	var out []countJoin
	for _, j := range []countJoin{
		{a: "jp", b: "jp", pred: "anyinteract", opt: spatialtf.JoinOptions{Mask: "anyinteract"}},
		{a: "jp", b: "js", pred: "anyinteract", opt: spatialtf.JoinOptions{Mask: "anyinteract"}},
		{a: "jt", b: "jt", pred: "distance=1.5", opt: spatialtf.JoinOptions{Distance: 1.5}},
	} {
		for _, algo := range []string{"nested", "subtree", "grid"} {
			for _, w := range []int{1, 2, 4} {
				if algo == "nested" && w > 1 {
					continue
				}
				j.opt.Algo, j.opt.Parallel = algo, w
				out = append(out, j)
			}
		}
	}
	return out
}

// sql renders the join as a statement selecting sel.
func (j countJoin) sql(sel string) string {
	return fmt.Sprintf("SELECT %s FROM TABLE(spatial_join('%s','geom','%s','geom','%s','algo=%s', %d))",
		sel, j.a, j.b, j.pred, j.opt.Algo, j.opt.Parallel)
}

func (j countJoin) String() string {
	return fmt.Sprintf("%s x %s %s, %s x %d", j.a, j.b, j.pred, j.opt.Algo, j.opt.Parallel)
}

// worldStripes is a 3-shard scope over the datasets' world: 60
// vertical stripes dealt round the shards, narrow enough that every
// star cluster crosses stripes of all three.
func worldStripes() []*spatialtf.ClusterScope {
	var out []*spatialtf.ClusterScope
	for k := range 3 {
		out = append(out, spatialtf.NewClusterScope(spatialtf.World, 60, 1, 3, k))
	}
	return out
}

// joinWork names the registry counters a join feeds whatever the
// interleaving of its instances (not the geometry fetches: the
// database's cache is warm for whichever form runs second).
var joinWork = []string{
	"join_node_pairs_total", "join_node_accesses_total", "join_candidates_total",
	"join_results_total", "join_fast_accepts_total", "join_box_hits_total",
	"join_box_misses_total", "join_mirrored_total", "join_refined_total",
	"join_tiles_swept_total",
}

// workDelta runs f and returns how far it moved each joinWork counter.
func workDelta(t *testing.T, reg *spatialtf.TelemetryRegistry, f func()) map[string]int64 {
	t.Helper()
	read := func() map[string]int64 {
		m := map[string]int64{}
		for _, name := range joinWork {
			p, ok := reg.Lookup(name)
			if !ok {
				t.Fatalf("metric %q not registered", name)
			}
			m[name] = int64(p.Value)
		}
		return m
	}
	before := read()
	f()
	after := read()
	for name := range after {
		after[name] -= before[name]
	}
	return after
}

// TestJoinCountEqualsRowsStreamed is count(*)'s differential: over
// {self, cross, points self} × {nested, subtree, grid} × {1, 2, 4
// workers} × {unscoped, each stripe of a 3-stripe scope}, the count a
// count(*) returns equals the number of rows the same join streams,
// through sqlmini and through DB.CountSpatialJoin, and the two drains
// do the same join work by every registry counter: results,
// candidates, node pairs, and each route's kept and dropped pairs. The
// three stripes' counts sum to the unscoped one.
func TestJoinCountEqualsRowsStreamed(t *testing.T) {
	e := joinCountEngine(t)
	db := e.DB()
	reg := spatialtf.NewTelemetryRegistry()
	db.EnableTelemetry(reg)
	scopes := append([]*spatialtf.ClusterScope{nil}, worldStripes()...)
	for _, j := range countJoins() {
		var unscoped, striped int
		for _, scope := range scopes {
			name := fmt.Sprintf("%v, scope %v", j, scope != nil)
			if scope != nil {
				name = fmt.Sprintf("%v, stripe %d", j, scope.Shard)
			}
			var rows, count int
			streamed := workDelta(t, reg, func() {
				_, lines := drainStream(t, e, j.sql("rid1, rid2"), scope)
				rows = len(lines)
			})
			counted := workDelta(t, reg, func() {
				st, err := e.ExecuteStreamScoped(j.sql("count(*)"), scope)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				count = st.Result.Count
			})
			if count != rows || rows == 0 {
				t.Errorf("%s: sqlmini count(*) %d, rows streamed %d", name, count, rows)
			}
			for _, c := range joinWork {
				if counted[c] != streamed[c] {
					t.Errorf("%s: sqlmini %s counted %d, streamed %d", name, c, counted[c], streamed[c])
				}
			}

			opt := j.opt
			opt.Scope = scope
			var pairs []spatialtf.Pair
			streamed = workDelta(t, reg, func() {
				jc, err := db.SpatialJoin(j.a, j.a+"_idx", j.b, j.b+"_idx", opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if pairs, err = jc.Collect(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
			counted = workDelta(t, reg, func() {
				var err error
				if count, err = db.CountSpatialJoin(j.a, j.a+"_idx", j.b, j.b+"_idx", opt); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
			if count != len(pairs) || count != rows {
				t.Errorf("%s: CountSpatialJoin %d, SpatialJoin %d pairs, sqlmini %d rows", name, count, len(pairs), rows)
			}
			for _, c := range joinWork {
				if counted[c] != streamed[c] {
					t.Errorf("%s: facade %s counted %d, streamed %d", name, c, counted[c], streamed[c])
				}
			}
			if scope == nil {
				unscoped = count
			} else {
				striped += count
			}
		}
		if striped != unscoped {
			t.Errorf("%v: the stripes count %d pairs, the unscoped join %d", j, striped, unscoped)
		}
	}
}

// TestJoinCountBesideDeleter runs count(*) over every join of the
// differential, unscoped and scoped, while a deleter removes every
// third row of the three tables. A pair whose row is deleted while the
// join runs may be counted or not — the points route decides it from
// the index, which outlives the heap row until the join unpins, and the
// refine route drops it where it fetches — but a count may never
// exceed the join's count before the deletes began, nor fall below the
// count over the rows the deleter never takes.
func TestJoinCountBesideDeleter(t *testing.T) {
	e := joinCountEngine(t)
	db := e.DB()
	victims := map[string][]storage.RowID{}
	// Rowids are per table (jp and js can share one), so a pair
	// survives by the victims of its own two tables.
	victim := map[string]map[storage.RowID]bool{}
	for _, name := range []string{"jp", "js", "jt"} {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		victim[name] = map[storage.RowID]bool{}
		if err := tab.Scan(func(id storage.RowID, row storage.Row) bool {
			if row[0].I%3 == 0 {
				victims[name] = append(victims[name], id)
				victim[name][id] = true
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	scopes := append([]*spatialtf.ClusterScope{nil}, worldStripes()...)
	type bounds struct{ lo, hi int }
	type leg struct {
		j     countJoin
		scope *spatialtf.ClusterScope
	}
	want := map[leg]bounds{}
	for _, j := range countJoins() {
		for _, scope := range scopes {
			opt := j.opt
			opt.Scope = scope
			jc, err := db.SpatialJoin(j.a, j.a+"_idx", j.b, j.b+"_idx", opt)
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := jc.Collect()
			if err != nil {
				t.Fatal(err)
			}
			lo := 0
			for _, p := range pairs {
				if !victim[j.a][p.A] && !victim[j.b][p.B] {
					lo++
				}
			}
			want[leg{j, scope}] = bounds{lo, len(pairs)}
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(done)
		for n := 0; ; n++ {
			progressed := false
			for _, name := range []string{"jp", "js", "jt"} {
				if n >= len(victims[name]) {
					continue
				}
				progressed = true
				tab, _ := db.Table(name)
				if err := tab.Delete(victims[name][n]); err != nil {
					t.Error(err)
					return
				}
			}
			if !progressed {
				return
			}
		}
	}()
	statements := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, j := range countJoins() {
			for _, scope := range scopes {
				st, err := e.ExecuteStreamScoped(j.sql("count(*)"), scope)
				if err != nil {
					t.Fatalf("%v beside a deleter: %v", j, err)
				}
				statements++
				if b, n := want[leg{j, scope}], st.Result.Count; n < b.lo || n > b.hi {
					t.Fatalf("%v, scoped %v: count %d outside [%d, %d]", j, scope != nil, n, b.lo, b.hi)
				}
			}
		}
	}
	wg.Wait()
	if statements == 0 {
		t.Fatal("no statement ran beside the deleter")
	}
	// Once the deleter is done, every count is the floor.
	for _, j := range countJoins() {
		for _, scope := range scopes {
			st, err := e.ExecuteStreamScoped(j.sql("count(*)"), scope)
			if err != nil {
				t.Fatal(err)
			}
			if b, n := want[leg{j, scope}], st.Result.Count; n != b.lo {
				t.Errorf("%v, scoped %v, after the deletes: count %d, want %d", j, scope != nil, n, b.lo)
			}
		}
	}
}
