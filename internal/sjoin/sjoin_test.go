package sjoin

import (
	"fmt"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
)

// buildSource loads a dataset into a table and creates its R-tree.
func buildSource(t testing.TB, name string, ds datagen.Dataset) Source {
	t.Helper()
	tab, _, err := datagen.LoadTable(name, ds)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := idxbuild.CreateRtree(tab, "geom", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Source{Table: tab, Column: "geom", Tree: tree}
}

// bruteForce computes the exact join result by exhaustive comparison.
func bruteForce(t testing.TB, a, b Source, cfg Config) []Pair {
	t.Helper()
	colA, err := a.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	colB, err := b.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	type ent struct {
		id storage.RowID
		g  geom.Geometry
	}
	var as, bs []ent
	a.Table.Scan(func(id storage.RowID, row storage.Row) bool {
		as = append(as, ent{id, row[colA].G})
		return true
	})
	b.Table.Scan(func(id storage.RowID, row storage.Row) bool {
		bs = append(bs, ent{id, row[colB].G})
		return true
	})
	var out []Pair
	for _, x := range as {
		for _, y := range bs {
			if cfg.secondaryAccepts(x.g, y.g) {
				out = append(out, Pair{A: x.id, B: y.id})
			}
		}
	}
	SortPairs(out)
	return out
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexJoinEqualsBruteForce(t *testing.T) {
	counties := buildSource(t, "counties", datagen.Counties(100, 1))
	stars := buildSource(t, "stars", datagen.Stars(400, 2))
	cfg := DefaultConfig()

	cases := []struct {
		name string
		a, b Source
	}{
		{"counties-self", counties, counties},
		{"stars-self", stars, stars},
		{"counties-stars", counties, stars},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := bruteForce(t, c.a, c.b, cfg)
			cur, err := IndexJoin(c.a, c.b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CollectPairs(cur)
			if err != nil {
				t.Fatal(err)
			}
			SortPairs(got)
			if !pairsEqual(got, want) {
				t.Fatalf("index join: %d pairs, brute force: %d", len(got), len(want))
			}
		})
	}
}

func TestNestedLoopEqualsIndexJoin(t *testing.T) {
	counties := buildSource(t, "counties", datagen.Counties(81, 3))
	cfg := DefaultConfig()
	nl, err := NestedLoop(counties, counties, cfg)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(nl)
	cur, err := IndexJoin(counties, counties, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ij, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(ij)
	if !pairsEqual(nl, ij) {
		t.Fatalf("nested loop %d pairs, index join %d pairs", len(nl), len(ij))
	}
	if len(nl) == 0 {
		t.Fatalf("degenerate test: no result pairs")
	}
}

func TestParallelJoinEqualsSerial(t *testing.T) {
	stars := buildSource(t, "stars", datagen.Stars(1500, 5))
	cfg := DefaultConfig()
	cur, err := IndexJoin(stars, stars, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(want)
	for _, workers := range []int{1, 2, 3, 4, 8} {
		pc, err := ParallelIndexJoin(stars, stars, cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := CollectPairs(pc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		SortPairs(got)
		if !pairsEqual(got, want) {
			t.Fatalf("workers=%d: %d pairs, serial %d", workers, len(got), len(want))
		}
	}
}

func TestWithinDistanceJoin(t *testing.T) {
	counties := buildSource(t, "counties", datagen.Counties(64, 7))
	base := DefaultConfig()
	var prev int
	for _, d := range []float64{0, 3, 8, 20} {
		cfg := base
		cfg.Distance = d
		want := bruteForce(t, counties, counties, cfg)
		cur, err := IndexJoin(counties, counties, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CollectPairs(cur)
		if err != nil {
			t.Fatal(err)
		}
		SortPairs(got)
		if !pairsEqual(got, want) {
			t.Fatalf("d=%g: index join %d pairs, brute force %d", d, len(got), len(want))
		}
		// Result size must grow with distance (Table 1's trend).
		if len(got) < prev {
			t.Fatalf("d=%g: result shrank from %d to %d", d, prev, len(got))
		}
		prev = len(got)
		// Nested loop agrees too.
		nl, err := NestedLoop(counties, counties, cfg)
		if err != nil {
			t.Fatal(err)
		}
		SortPairs(nl)
		if !pairsEqual(nl, want) {
			t.Fatalf("d=%g: nested loop %d pairs, want %d", d, len(nl), len(want))
		}
	}
}

func TestJoinMasks(t *testing.T) {
	counties := buildSource(t, "counties", datagen.Counties(49, 11))
	for _, mask := range []geom.Mask{geom.MaskAnyInteract, geom.MaskTouch, geom.MaskEqual, geom.MaskOverlap} {
		cfg := Config{Mask: mask, SortCandidates: true}
		want := bruteForce(t, counties, counties, cfg)
		cur, err := IndexJoin(counties, counties, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CollectPairs(cur)
		if err != nil {
			t.Fatal(err)
		}
		SortPairs(got)
		if !pairsEqual(got, want) {
			t.Fatalf("mask %v: index join %d pairs, brute force %d", mask, len(got), len(want))
		}
	}
	// EQUAL on a self-join returns exactly the diagonal.
	cfg := Config{Mask: geom.MaskEqual, SortCandidates: true}
	cur, _ := IndexJoin(counties, counties, cfg)
	got, _ := CollectPairs(cur)
	if len(got) != counties.Table.Len() {
		t.Fatalf("EQUAL self-join = %d pairs, want %d", len(got), counties.Table.Len())
	}
	for _, p := range got {
		if p.A != p.B {
			t.Fatalf("EQUAL self-join produced off-diagonal pair %v", p)
		}
	}
}

func TestSelfJoinSymmetric(t *testing.T) {
	stars := buildSource(t, "stars", datagen.Stars(600, 13))
	cur, err := IndexJoin(stars, stars, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	set := map[Pair]bool{}
	for _, p := range pairs {
		set[p] = true
	}
	for _, p := range pairs {
		if !set[Pair{A: p.B, B: p.A}] {
			t.Fatalf("pair %v present but its mirror is not", p)
		}
	}
}

func TestCandidateCapDoesNotChangeResults(t *testing.T) {
	stars := buildSource(t, "stars", datagen.Stars(800, 17))
	base := DefaultConfig()
	cur, err := IndexJoin(stars, stars, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(want)
	for _, cap := range []int{1, 7, 64, 100000} {
		cfg := base
		cfg.CandidateCap = cap
		cur, err := IndexJoin(stars, stars, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CollectPairs(cur)
		if err != nil {
			t.Fatal(err)
		}
		SortPairs(got)
		if !pairsEqual(got, want) {
			t.Fatalf("cap=%d: %d pairs, want %d", cap, len(got), len(want))
		}
	}
}

func TestSortCandidatesDoesNotChangeResults(t *testing.T) {
	stars := buildSource(t, "stars", datagen.Stars(800, 19))
	sorted := DefaultConfig()
	unsorted := DefaultConfig()
	unsorted.SortCandidates = false
	c1, err := IndexJoin(stars, stars, sorted)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := CollectPairs(c1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := IndexJoin(stars, stars, unsorted)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CollectPairs(c2)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(p1)
	SortPairs(p2)
	if !pairsEqual(p1, p2) {
		t.Fatalf("sorted %d pairs, unsorted %d", len(p1), len(p2))
	}
}

func TestSortedFetchReducesGeomFetches(t *testing.T) {
	// The §4.2 claim: sorting candidates by first rowid improves fetch
	// behaviour. With the one-geometry cache, sorted order must fetch
	// fewer outer geometries than arrival order on a workload with
	// repeated outer rowids.
	stars := buildSource(t, "stars", datagen.Stars(1500, 23))
	run := func(sort bool) JoinStats {
		cfg := DefaultConfig()
		cfg.SortCandidates = sort
		cfg.CandidateCap = 100000 // one big array to make ordering matter
		fn, err := NewJoinFunction(stars, stars, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := RunJoinFunction(fn, 4096); err != nil {
			t.Fatal(err)
		}
		return fn.Stats()
	}
	s := run(true)
	u := run(false)
	if s.Results != u.Results || s.Candidates != u.Candidates {
		t.Fatalf("work mismatch: %+v vs %+v", s, u)
	}
	if s.GeomFetches > u.GeomFetches {
		t.Errorf("sorted fetches %d > unsorted %d", s.GeomFetches, u.GeomFetches)
	}
}

func TestEmptyJoins(t *testing.T) {
	empty := buildSource(t, "empty", datagen.Dataset{Name: "empty", Bounds: datagen.World})
	stars := buildSource(t, "stars", datagen.Stars(100, 29))
	for _, pair := range [][2]Source{{empty, stars}, {stars, empty}, {empty, empty}} {
		cur, err := IndexJoin(pair[0], pair[1], DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got, err := CollectPairs(cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("empty join returned %d pairs", len(got))
		}
		pc, err := ParallelIndexJoin(pair[0], pair[1], DefaultConfig(), 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err = CollectPairs(pc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("empty parallel join returned %d pairs", len(got))
		}
	}
}

func TestSubtreePairsFigure1(t *testing.T) {
	// Figure 1: two 2-level trees; descending one level yields the
	// cross product of the level-1 subtree roots (up to MBR pruning,
	// which Figure 1's overlapping geometry does not trigger here
	// because the star data overlaps heavily).
	stars := buildSource(t, "stars", datagen.Stars(2000, 31))
	a, b := stars.Tree, stars.Tree
	ra := a.SubtreeRoots(1)
	rb := b.SubtreeRoots(1)
	pairs := SubtreePairs(a, b, 1, DefaultConfig())
	if len(pairs) == 0 || len(pairs) > len(ra)*len(rb) {
		t.Fatalf("SubtreePairs = %d, roots %dx%d", len(pairs), len(ra), len(rb))
	}
	// With pruning disabled by a huge distance the full cross product
	// appears — for a scoped join, which keeps both orientations of a
	// self-join's pairs. Unscoped, the symmetric self-join keeps each
	// unordered pair of roots once.
	cfg := DefaultConfig()
	cfg.Distance = 1e9
	cfg.Owns = func(x, y float64) bool { return true }
	full := SubtreePairs(a, b, 1, cfg)
	if len(full) != len(ra)*len(rb) {
		t.Fatalf("unpruned SubtreePairs = %d, want %d", len(full), len(ra)*len(rb))
	}
	cfg.Owns = nil
	half := SubtreePairs(a, b, 1, cfg)
	if len(half) != len(ra)*(len(ra)+1)/2 {
		t.Fatalf("unpruned unordered SubtreePairs = %d, want %d", len(half), len(ra)*(len(ra)+1)/2)
	}
	pos := map[rtree.NodeRef]int{}
	for i, r := range ra {
		pos[r] = i
	}
	for _, p := range half {
		if pos[p.A] > pos[p.B] {
			t.Fatalf("unordered SubtreePairs keeps (r%d, r%d)", pos[p.A], pos[p.B])
		}
	}
}

func TestPairEncodingRoundTrip(t *testing.T) {
	p := Pair{A: storage.RowID{Page: 3, Slot: 9}, B: storage.RowID{Page: 8, Slot: 1}}
	var b storage.Batch
	appendPairRows(&b, []Pair{p})
	if row := b.Rows[0]; row[0].Type != storage.TRowID || row[0].String() != "3.9" || row[1].String() != "8.1" {
		t.Fatalf("pair row %v", row)
	}
	got, err := PairFromRow(b.Rows[0])
	if err != nil || got != p {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	for _, c := range []struct {
		row  storage.Row
		want string
	}{
		{storage.Row{storage.Rid(p.A)}, "sjoin: not a (rid1, rid2) row: (ROWID)"},
		{storage.Row{storage.Bytes([]byte{1}), storage.Bytes([]byte{2})}, "sjoin: not a (rid1, rid2) row: (RAW, RAW)"},
		// The packed-integer row the table function wrote before rowid
		// values: two INT cells are no longer a pair.
		{storage.Row{storage.Int(p.A.Int64()), storage.Int(p.B.Int64())}, "sjoin: not a (rid1, rid2) row: (INT, INT)"},
		{storage.Row{storage.Rid(p.A), storage.Str("8.1")}, "sjoin: not a (rid1, rid2) row: (ROWID, VARCHAR)"},
	} {
		if _, err := PairFromRow(c.row); err == nil || err.Error() != c.want {
			t.Errorf("PairFromRow(%v) error %v, want %q", c.row, err, c.want)
		}
	}
}

func TestPairOrdering(t *testing.T) {
	pairs := []Pair{
		{A: storage.RowID{Page: 2, Slot: 0}, B: storage.RowID{Page: 1, Slot: 0}},
		{A: storage.RowID{Page: 1, Slot: 0}, B: storage.RowID{Page: 2, Slot: 0}},
		{A: storage.RowID{Page: 1, Slot: 0}, B: storage.RowID{Page: 1, Slot: 0}},
	}
	SortPairs(pairs)
	want := fmt.Sprint([]Pair{
		{A: storage.RowID{Page: 1, Slot: 0}, B: storage.RowID{Page: 1, Slot: 0}},
		{A: storage.RowID{Page: 1, Slot: 0}, B: storage.RowID{Page: 2, Slot: 0}},
		{A: storage.RowID{Page: 2, Slot: 0}, B: storage.RowID{Page: 1, Slot: 0}},
	})
	if fmt.Sprint(pairs) != want {
		t.Fatalf("SortPairs = %v", pairs)
	}
}

// TestJoinAllocFloor holds the join's candidate sources to an
// allocation budget per result row, each drained through its cursor
// into one reused batch with the geometry cache warm:
//   - the tree source refining the counties self-join at distance 7:
//     the synchronized traversal and its node sweeps, the candidate
//     sort, the secondary filter and the cached geometry fetches;
//   - the tree source deciding block groups against counties by their
//     boxes (the box route), refining the rest;
//   - the grid source on a point self-join over 1 024 tiles, whose
//     pairs the point route proves.
//
// Each budget sits about ten allocations per statement above the count
// measured when it was set. A candidate cap and a fetch size of 64 run
// every per-refill and per-fetch step dozens of times a statement, as
// the tile count runs the per-tile steps, so one allocation added to
// any of them, like one added per candidate, breaks the budget.
//
// Each shape also has a count leg: one join function of it counted
// through RunJoinFunction (the grid's one instance over its own tile
// queue). Its budget is the exact count per statement measured when it
// was set, and it may not exceed what the row leg allocates.
func TestJoinAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	counties := buildSource(t, "floor_counties", datagen.Counties(900, 1))
	blockGroups := buildSource(t, "floor_blockgroups", datagen.BlockGroups(1500, 3))
	stars := datagen.Stars(4000, 7)
	pts := make([]geom.Point, len(stars.Geoms))
	for i, g := range stars.Geoms {
		pts[i] = geom.MBROf(g).Center()
	}
	points := pointTable(t, "floor_points", "point", pts)

	cfg := DefaultConfig()
	cfg.CandidateCap = 64
	cfg.FetchBatch = 64
	cfg.GeomCache = NewGeomCache(0)
	near, grid := cfg, cfg
	near.Distance = 7
	grid.Distance = 1.5
	grid.GridTiles = 1024
	tree := func(a, b Source, cfg Config) func() (*JoinFunction, error) {
		return func() (*JoinFunction, error) { return NewJoinFunction(a, b, cfg) }
	}
	for _, c := range []struct {
		name   string
		open   func() (storage.Cursor, error)
		fn     func() (*JoinFunction, error)
		budget float64
		count  float64
	}{
		{"tree refine", func() (storage.Cursor, error) { return IndexJoin(counties, counties, near) }, tree(counties, counties, near), 0.006, 32},
		{"tree box", func() (storage.Cursor, error) { return IndexJoin(blockGroups, counties, cfg) }, tree(blockGroups, counties, cfg), 0.022, 39},
		{"grid points", func() (storage.Cursor, error) { return GridParallelJoin(points, points, grid, 1) }, func() (*JoinFunction, error) {
			return newJoinFn(points, points, grid, gridSource{buildGridState(points, points, grid, 1)})
		}, 0.0045, 13},
	} {
		var b storage.Batch
		run := func() int {
			cur, err := c.open()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			rows := 0
			for {
				b.Reset()
				if err := cur.NextBatch(&b, 0); err != nil {
					t.Fatal(err)
				}
				if len(b.Rows) == 0 {
					return rows
				}
				rows += len(b.Rows)
			}
		}
		count := func() int {
			fn, err := c.fn()
			if err != nil {
				t.Fatal(err)
			}
			n, _, err := RunJoinFunction(fn, 0)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		rows := run() // warm: the geometry cache, the batch
		if rows < 2000 {
			t.Fatalf("%s: %d rows; the budget needs a result large enough to amortise per-statement setup", c.name, rows)
		}
		if n := count(); n != rows {
			t.Fatalf("%s: count(*) %d, rows %d", c.name, n, rows)
		}
		perStmt := testing.AllocsPerRun(5, func() { run() })
		perRow := perStmt / float64(rows)
		counted := testing.AllocsPerRun(5, func() { count() })
		t.Logf("%s: %d rows, %.0f allocations per statement, %.4f per row (budget %.4f); counted %.0f (budget %.0f)",
			c.name, rows, perStmt, perRow, c.budget, counted, c.count)
		if perRow > c.budget {
			t.Errorf("%s: %.4f allocations per result row, budget %.4f", c.name, perRow, c.budget)
		}
		if counted > c.count || counted > perStmt {
			t.Errorf("%s: the count leg makes %.0f allocations per statement, budget %.0f, row leg %.0f", c.name, counted, c.count, perStmt)
		}
	}
}
