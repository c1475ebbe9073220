package sjoin

import (
	"fmt"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// Proof routes. emit settles every primary-filter survivor by the first
// route of the table owner → self → points → box → refine whose
// conditions hold; mirror, the fourth row, is a mode of the sources
// (DESIGN.md §21). These tests call the per-pair classifier on every
// candidate of a matrix of join shapes × predicates × {unscoped, each
// stripe of a 3-stripe scope} and check three things: a pair a route
// settles without refining agrees with the exact predicate on the
// fetched geometries; each route fires somewhere its conditions hold
// (mirror: returns mirror images) and never where they fail; and every
// algorithm returns the nested-loop reference's pairs.

// routeShape is one operand pair of the route matrix.
type routeShape struct {
	name string
	a, b Source
	// d is the distance of the shape's within-distance predicate.
	d float64
	// equal adds an EQUAL predicate (duplicated rows).
	equal bool
}

// withDuplicates appends every k-th geometry of ds once more, so EQUAL
// holds between pairs of distinct rows.
func withDuplicates(ds datagen.Dataset, k int) datagen.Dataset {
	ds.Geoms = append([]geom.Geometry(nil), ds.Geoms...)
	for i, n := 0, len(ds.Geoms); i < n; i += k {
		ds.Geoms = append(ds.Geoms, ds.Geoms[i])
	}
	return ds
}

func routeShapes(t testing.TB) []routeShape {
	counties := buildSource(t, "counties", datagen.Counties(64, 3))
	return []routeShape{
		{name: "blockgroups x counties", a: buildSource(t, "blockgroups", datagen.BlockGroups(150, 1)), b: counties, d: 7},
		{name: "counties self", a: counties, b: counties, d: 7},
		{name: "stars self", a: buildSource(t, "stars", datagen.Stars(300, 41)), d: 2},
		{name: "point lattice self", a: pointTable(t, "points", "point", latticePoints(5, 300)), d: 1.5},
		{name: "multipolygons self", a: buildSource(t, "paired_counties", pairedCounties(t, 64, 4)), d: 7},
		{name: "duplicated counties self", a: buildSource(t, "duplicated_counties", withDuplicates(datagen.Counties(64, 3), 5)), d: 7, equal: true},
	}
}

// routePredicate is one predicate of the matrix.
type routePredicate struct {
	name string
	cfg  Config
}

func routePredicates(s routeShape) []routePredicate {
	with := func(d float64, m geom.Mask) Config {
		cfg := DefaultConfig()
		cfg.Distance, cfg.Mask = d, m
		return cfg
	}
	preds := []routePredicate{
		{"anyinteract", with(0, geom.MaskAnyInteract)},
		{fmt.Sprintf("distance=%g", s.d), with(s.d, geom.MaskAnyInteract)},
		{"touch", with(0, geom.MaskTouch)},
		{"inside", with(0, geom.MaskInside)},
	}
	if s.equal {
		preds = append(preds, routePredicate{"equal", with(0, geom.MaskEqual)})
	}
	return preds
}

// expectedRoutes is the route set a join may take, derived from the
// join's shape here rather than by the resolver under test: the owner
// test needs a scope; self, points and box need a predicate that
// depends only on the two point sets (ANYINTERACT or a distance); self
// and mirror need a self-join; mirror needs a symmetric predicate and no
// scope.
func expectedRoutes(cfg Config, self bool) routeSet {
	pointSet := cfg.Distance > 0 || cfg.Mask == geom.MaskAnyInteract
	symmetric := cfg.Distance > 0 || cfg.Mask != geom.MaskInside
	want := routeSet(1 << routeRefine)
	add := func(r route, on bool) {
		if on {
			want |= 1 << r
		}
	}
	add(routeOwner, cfg.Owns != nil)
	add(routeSelf, self && pointSet)
	add(routePoints, pointSet)
	add(routeMirror, self && symmetric && cfg.Owns == nil)
	add(routeBox, pointSet)
	return want
}

// heapGeoms returns the geometry of every row of s, by rowid.
func heapGeoms(t testing.TB, s Source) map[storage.RowID]geom.Geometry {
	t.Helper()
	col, err := s.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	out := map[storage.RowID]geom.Geometry{}
	if err := s.Table.Scan(func(id storage.RowID, row storage.Row) bool {
		out[id] = row[col].G
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// routeCounts tallies what the classifier did over the whole matrix.
type routeCounts struct {
	// fired counts the candidates each route took.
	fired [numRoutes]int
	// boxSettled counts the box candidates decided without refining.
	boxSettled int
	// mirrored counts the mirror images the joins' route vectors
	// returned: mirror is a mode of the sources, which classify never
	// returns.
	mirrored int
}

// checkRoutes classifies every candidate of one join — every leaf-entry
// pair the primary filter passes — and checks each route's settlement
// against the exact predicate.
func checkRoutes(t *testing.T, a, b Source, cfg Config, tally *routeCounts) {
	t.Helper()
	fn, err := NewJoinFunction(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	self := a.Table == b.Table
	if want := expectedRoutes(cfg, self); fn.routes != want {
		t.Fatalf("resolved routes %v, want %v", fn.routes, want)
	}
	ga, gb := heapGeoms(t, a), heapGeoms(t, b)
	exact := func(p Pair) bool { return cfg.secondaryAccepts(ga[p.A], gb[p.B]) }
	var last [2]fetched
	for _, ia := range a.Tree.Items() {
		for _, ib := range b.Tree.Items() {
			if !cfg.primaryAccepts(ia.MBR, ib.MBR) {
				continue
			}
			p := Pair{A: ia.ID, B: ib.ID}
			r := fn.classify(p, ia.MBR, ib.MBR)
			if !fn.routes.has(r) {
				t.Fatalf("%v: route %v outside the join's set %v", p, r, fn.routes)
			}
			tally.fired[r]++
			switch r {
			case routeOwner:
				if cfg.Owns(PairRefPoint(ia.MBR, ib.MBR, cfg.Distance)) {
					t.Fatalf("%v: dropped as unowned, but the scope owns its reference point", p)
				}
			case routeSelf, routePoints:
				if !exact(p) {
					t.Fatalf("%v: proven by the %v route, but the exact predicate fails", p, r)
				}
			case routeBox:
				before := fn.stats.routes[routeBox]
				box, _, big := boxOf(ia.MBR, ib.MBR)
				c := boxCand{p, box, big}
				ok, err := fn.decide(&c, &last)
				if err != nil {
					t.Fatal(err)
				}
				if ok != exact(p) {
					t.Fatalf("%v: the box route says %v, the exact predicate %v", p, ok, exact(p))
				}
				if fn.stats.routes[routeBox] != before {
					tally.boxSettled++
				}
			}
		}
	}
}

// TestProofRoutesAreSound is the route table's differential: shapes ×
// predicates × {unscoped, each stripe of a 3-stripe scope}.
func TestProofRoutesAreSound(t *testing.T) {
	var tally routeCounts
	for _, s := range routeShapes(t) {
		if s.b.Table == nil {
			s.b = s.a
		}
		mbrA, mbrB := heapMBRs(t, s.a), heapMBRs(t, s.b)
		for _, pred := range routePredicates(s) {
			scopes := append([]func(x, y float64) bool{nil}, stripes(3)...)
			for k, own := range scopes {
				name := fmt.Sprintf("%s/%s/unscoped", s.name, pred.name)
				if own != nil {
					name = fmt.Sprintf("%s/%s/stripe=%d", s.name, pred.name, k)
				}
				t.Run(name, func(t *testing.T) {
					cfg := pred.cfg
					cfg.Owns = own
					checkRoutes(t, s.a, s.b, cfg, &tally)
					fn, err := NewJoinFunction(s.a, s.b, cfg)
					if err != nil {
						t.Fatal(err)
					}
					_, st, err := RunJoinFunction(fn, 0)
					if err != nil {
						t.Fatal(err)
					}
					tally.mirrored += st.routes[routeMirror].kept
					want := nestedPairs(t, s.a, s.b, cfg)
					if own != nil {
						for _, p := range want {
							if !own(PairRefPoint(mbrA[p.A], mbrB[p.B], cfg.Distance)) {
								t.Fatalf("nested-loop reference returns the unowned pair %v", p)
							}
						}
					}
					for _, algo := range pointAlgos {
						cur, err := algo.open(s.a, s.b, cfg)
						if got := sortedPairs(t, cur, err); !pairsEqual(got, want) {
							t.Fatalf("%s: %d pairs, nested-loop reference %d", algo.name, len(got), len(want))
						}
					}
				})
			}
		}
	}
	if tally.mirrored == 0 {
		t.Errorf("no join returned a mirror image: %+v", tally)
	}
	for r := route(0); r < numRoutes; r++ {
		if r != routeMirror && tally.fired[r] == 0 {
			t.Errorf("the %v route never fired: %+v", r, tally)
		}
	}
	if tally.boxSettled == 0 {
		t.Errorf("the box route never settled a candidate without refining it: %+v", tally)
	}
}
