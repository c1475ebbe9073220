package spatialtf

import (
	"fmt"
	"strings"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	db := Open()
	cities, err := db.CreateSpatialTable("cities")
	if err != nil {
		t.Fatal(err)
	}
	idA, err := cities.Add("alpha", MustRect(0, 0, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cities.Add("beta", MustRect(20, 20, 30, 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("cities_idx", "cities", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	hits, err := db.Relate("cities", "cities_idx", MustRect(5, 5, 8, 8), "inside")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		// The query window is INSIDE alpha; Relate(tabGeom, q, inside)
		// asks whether the table geometry is inside the window, which it
		// is not.
		t.Fatalf("inside hits = %v", hits)
	}
	hits, err = db.Relate("cities", "cities_idx", MustRect(5, 5, 8, 8), "contains")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != idA {
		t.Fatalf("contains hits = %v, want [%v]", hits, idA)
	}
	hits, err = db.WithinDistance("cities", "cities_idx", NewPoint(12, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != idA {
		t.Fatalf("within-distance hits = %v", hits)
	}
	// Geometry accessor.
	g, err := cities.Geometry(idA, "geom")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(MustRect(0, 0, 10, 10)) {
		t.Fatalf("Geometry returned %v", g)
	}
}

func TestFacadeErrors(t *testing.T) {
	db := Open()
	if _, err := db.Table("missing"); err == nil {
		t.Errorf("missing table: want error")
	}
	if _, err := db.Index("missing"); err == nil {
		t.Errorf("missing index: want error")
	}
	if _, err := db.CreateSpatialTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateSpatialTable("t"); err == nil {
		t.Errorf("duplicate table: want error")
	}
	if _, err := db.Relate("t", "noidx", MustRect(0, 0, 1, 1), "anyinteract"); err == nil {
		t.Errorf("missing index in Relate: want error")
	}
	if _, err := db.CreateIndex("i", "t", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Relate("t", "i", MustRect(0, 0, 1, 1), "bogusmask"); err == nil {
		t.Errorf("bad mask: want error")
	}
	// Join across mismatched table/index pairs fails.
	if _, err := db.CreateSpatialTable("u"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SpatialJoin("u", "i", "t", "i", JoinOptions{}); err == nil {
		t.Errorf("index on wrong table: want error")
	}
}

func TestFacadeSpatialJoinMatchesNestedLoop(t *testing.T) {
	db := Open()
	ds := Counties(64, 101)
	if _, err := db.LoadDataset("counties", ds); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("counties_idx", "counties", RTree, IndexOptions{Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	nl, err := db.NestedLoopJoin("counties", "counties_idx", "counties", "counties_idx", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := db.SpatialJoin("counties", "counties_idx", "counties", "counties_idx", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ij, err := cur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	pcur, err := db.SpatialJoin("counties", "counties_idx", "counties", "counties_idx", JoinOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	pj, err := pcur.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(nl) == 0 || len(nl) != len(ij) || len(ij) != len(pj) {
		t.Fatalf("result sizes differ: nl=%d ij=%d pj=%d", len(nl), len(ij), len(pj))
	}
	set := map[Pair]bool{}
	for _, p := range nl {
		set[p] = true
	}
	for _, p := range append(ij, pj...) {
		if !set[p] {
			t.Fatalf("pair %v not in nested-loop result", p)
		}
	}
}

func TestFacadeJoinAlgoOverride(t *testing.T) {
	db := Open()
	if _, err := db.LoadDataset("c", Counties(150, 113)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("ci", "c", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := db.NestedLoopJoin("c", "ci", "c", "ci", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sortPairs := func(ps []Pair) {
		for i := 1; i < len(ps); i++ {
			for j := i; j > 0 && ps[j].Less(ps[j-1]); j-- {
				ps[j], ps[j-1] = ps[j-1], ps[j]
			}
		}
	}
	sortPairs(want)
	for _, opt := range []JoinOptions{
		{Algo: "grid"},
		{Algo: "grid", Parallel: 4},
		{Algo: "subtree", Parallel: 4},
		{Algo: "nested"},
		{Algo: "auto"},
		{Algo: "auto", Parallel: 8},
	} {
		cur, err := db.SpatialJoin("c", "ci", "c", "ci", opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		got, err := cur.Collect()
		if err != nil {
			t.Fatal(err)
		}
		sortPairs(got)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d pairs, want %d", opt, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: pair %d = %v, want %v", opt, i, got[i], want[i])
			}
		}
	}
	if _, err := db.SpatialJoin("c", "ci", "c", "ci", JoinOptions{Algo: "bogus"}); err == nil {
		t.Errorf("bad algo accepted")
	}
}

func TestExplainJoinAlgo(t *testing.T) {
	db := Open()
	if _, err := db.LoadDataset("stars", Stars(2000, 603)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("si", "stars", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	plan, err := db.ExplainJoin("stars", "si", "stars", "si", JoinOptions{Algo: "grid", Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"algorithm: grid", "GRID-PARTITIONED parallel table function, 8 instances", "uniform tiles", "A/B/C/D"} {
		if !containsStr(plan, want) {
			t.Errorf("grid plan missing %q:\n%s", want, plan)
		}
	}
	plan, err = db.ExplainJoin("stars", "si", "stars", "si", JoinOptions{Algo: "auto", Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(plan, "cost model:") {
		t.Errorf("auto plan missing cost-model reasoning:\n%s", plan)
	}
	plan, err = db.ExplainJoin("stars", "si", "stars", "si", JoinOptions{Algo: "nested"})
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(plan, "NESTED LOOP") {
		t.Errorf("nested plan missing strategy:\n%s", plan)
	}
	if _, err := db.ExplainJoin("stars", "si", "stars", "si", JoinOptions{Algo: "nope"}); err == nil {
		t.Errorf("bad algo accepted by explain")
	}
}

func TestFacadeJoinCursorStreams(t *testing.T) {
	db := Open()
	if _, err := db.LoadDataset("stars", Stars(300, 103)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("si", "stars", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	cur, err := db.SpatialJoin("stars", "si", "stars", "si", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	cur.Close()
	if n < 300 {
		t.Fatalf("self-join streamed %d pairs, want >= row count", n)
	}
}

// TestFacadeJoinScope checks the R-tree join entry points against a
// cluster scope: SpatialJoin and NestedLoopJoin return the same proper
// subset on each shard, the shards' subsets partition the unscoped
// result, and ExplainJoin says where the owner test runs.
func TestFacadeJoinScope(t *testing.T) {
	db := Open()
	if _, err := db.LoadDataset("c", Counties(64, 109)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("c_rt", "c", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	all, err := db.NestedLoopJoin("c", "c_rt", "c", "c_rt", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	seen := map[Pair]int{}
	for shard := 0; shard < shards; shard++ {
		opt := JoinOptions{Scope: NewClusterScope(World, 4, 4, shards, shard)}
		nl, err := db.NestedLoopJoin("c", "c_rt", "c", "c_rt", opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(nl) == 0 || len(nl) >= len(all) {
			t.Fatalf("shard %d: nested loop returned %d of %d pairs; want a proper subset", shard, len(nl), len(all))
		}
		cur, err := db.SpatialJoin("c", "c_rt", "c", "c_rt", opt)
		if err != nil {
			t.Fatal(err)
		}
		sj, err := cur.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(sj) != len(nl) {
			t.Fatalf("shard %d: spatial join %d pairs, nested loop %d", shard, len(sj), len(nl))
		}
		for _, p := range sj {
			seen[p]++
		}
		for _, p := range nl {
			seen[p]++
		}
		plan, err := db.ExplainJoin("c", "c_rt", "c", "c_rt", opt)
		if want := fmt.Sprintf("cluster scope: shard %d of %d, owner test at candidate emission", shard, shards); err != nil || !containsStr(plan, want) {
			t.Errorf("scoped plan missing %q (err %v):\n%s", want, err, plan)
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("shards returned %d distinct pairs, unscoped join %d", len(seen), len(all))
	}
	for p, n := range seen {
		if n != 2 { // once from each of the two entry points, on one shard
			t.Fatalf("pair %v returned %d times across shards and entry points, want 2", p, n)
		}
	}
}

func TestFacadeNearest(t *testing.T) {
	db := Open()
	cities, err := db.CreateSpatialTable("cities")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]RowID{}
	for name, g := range map[string]Geometry{
		"near":    MustRect(10, 10, 11, 11),
		"mid":     MustRect(20, 20, 21, 21),
		"far":     MustRect(50, 50, 51, 51),
		"farther": MustRect(90, 90, 91, 91),
	} {
		id, err := cities.Add(name, g)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	if _, err := db.CreateIndex("ci", "cities", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	nbs, err := db.Nearest("cities", "ci", NewPoint(9, 9), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 3 {
		t.Fatalf("Nearest returned %d", len(nbs))
	}
	if nbs[0].ID != ids["near"] || nbs[1].ID != ids["mid"] || nbs[2].ID != ids["far"] {
		t.Fatalf("wrong ranking: %+v (ids %v)", nbs, ids)
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i-1].Dist > nbs[i].Dist {
			t.Fatalf("distances out of order: %+v", nbs)
		}
	}
}

func TestFacadeIndexMetadata(t *testing.T) {
	db := Open()
	if _, err := db.LoadDataset("c", Counties(16, 109)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("c_rt", "c", RTree, IndexOptions{Fanout: 8}); err != nil {
		t.Fatal(err)
	}
	metas, err := db.IndexMetadata()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].IndexName != "c_rt" || metas[0].Fanout != 8 || metas[0].RowsIndexed != 16 {
		t.Fatalf("metadata = %+v", metas)
	}
}

func TestExplainJoin(t *testing.T) {
	db := Open()
	if _, err := db.LoadDataset("stars", Stars(2000, 601)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("si", "stars", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	plan, err := db.ExplainJoin("stars", "si", "stars", "si", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SPATIAL JOIN (mask=ANYINTERACT)", "SERIAL pipelined", "sorted by first rowid", "2000 items"} {
		if !containsStr(plan, want) {
			t.Errorf("serial plan missing %q:\n%s", want, plan)
		}
	}
	plan, err = db.ExplainJoin("stars", "si", "stars", "si", JoinOptions{Parallel: 4, Distance: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"distance=2", "PARALLEL pipelined table function, 4 instances", "subtree-pair tasks scheduled"} {
		if !containsStr(plan, want) {
			t.Errorf("parallel plan missing %q:\n%s", want, plan)
		}
	}
	if _, err := db.ExplainJoin("stars", "nope", "stars", "si", JoinOptions{}); err == nil {
		t.Errorf("bad index accepted")
	}
}

// TestExplainJoinProofRoutes pins the plan's proof-route line: the
// routes whose per-join conditions hold, as the join function resolves
// them.
func TestExplainJoinProofRoutes(t *testing.T) {
	db := Open()
	for _, tab := range []string{"c", "d"} {
		if _, err := db.LoadDataset(tab, Counties(36, 107)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateIndex(tab+"_rt", tab, RTree, IndexOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		b      string
		opt    JoinOptions
		routes string
	}{
		{"counties self-join d=7", "c", JoinOptions{Distance: 7}, "self, points, mirror, box, refine"},
		{"touch join", "d", JoinOptions{Mask: "touch"}, "refine"},
		{"scoped self-join d=7", "c", JoinOptions{Distance: 7, Scope: NewClusterScope(World, 4, 4, 3, 0)}, "owner, self, points, box, refine"},
	} {
		plan, err := db.ExplainJoin("c", "c_rt", c.b, c.b+"_rt", c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := "  proof routes: " + c.routes + "\n"; !containsStr(plan, want) {
			t.Errorf("%s: plan missing %q:\n%s", c.name, want, plan)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && strings.Contains(haystack, needle)
}

func TestFacadeDMLMaintainsIndex(t *testing.T) {
	db := Open()
	tab, err := db.CreateSpatialTable("live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("live_idx", "live", RTree, IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	id, err := tab.Add("row", MustRect(1, 1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	hits, err := db.Relate("live", "live_idx", MustRect(0, 0, 3, 3), "anyinteract")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != id {
		t.Fatalf("post-insert hits = %v", hits)
	}
	if err := tab.Delete(id); err != nil {
		t.Fatal(err)
	}
	hits, err = db.Relate("live", "live_idx", MustRect(0, 0, 3, 3), "anyinteract")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("post-delete hits = %v", hits)
	}
}
