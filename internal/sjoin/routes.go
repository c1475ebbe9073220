package sjoin

import (
	"strings"

	"spatialtf/internal/geom"
)

// route is one way the join settles a primary-filter survivor. emit
// tries the routes in this order and takes the first whose conditions
// hold (DESIGN.md §21 argues each one's soundness):
//
//	owner   a scoped join drops the pair another shard owns
//	self    a row paired with itself meets itself: proven
//	points  two point MBRs are their geometries: proven
//	mirror  not a per-pair test but a mode of the sources: an unscoped
//	        symmetric self-join enumerates each unordered pair once,
//	        and emit and accept return it in both orientations
//	box     the smaller leaf MBR against the partner's boundary
//	        (geom.BoxSide) decides, or the candidate is refined
//	refine  fetch both geometries and run the exact predicate
type route uint8

const (
	routeOwner route = iota
	routeSelf
	routePoints
	routeMirror
	routeBox
	routeRefine
	numRoutes
)

// routeTable holds each route's name and its per-join conditions:
// applies is evaluated once per join (resolveRoutes), never per pair.
var routeTable = [numRoutes]struct {
	name    string
	applies func(c Config, self bool) bool
}{
	routeOwner:  {"owner", func(c Config, _ bool) bool { return c.Owns != nil }},
	routeSelf:   {"self", func(c Config, self bool) bool { return self && c.pointSet() }},
	routePoints: {"points", func(c Config, _ bool) bool { return c.pointSet() }},
	routeMirror: {"mirror", func(c Config, self bool) bool {
		return self && (c.Distance > 0 || c.Mask.Symmetric()) && c.Owns == nil
	}},
	routeBox:    {"box", func(c Config, _ bool) bool { return c.pointSet() }},
	routeRefine: {"refine", func(Config, bool) bool { return true }},
}

// pointSet reports whether the predicate depends only on the two point
// sets (ANYINTERACT, or within-distance), the condition of the self,
// points and box routes.
func (c Config) pointSet() bool {
	return c.Distance > 0 || c.Mask == geom.MaskAnyInteract
}

func (r route) String() string { return routeTable[r].name }

// UnorderedPairs reports whether a join of a and b under cfg runs in
// the mirror row's mode: its sources — the grid, the tile sweeps and
// the R-tree traversal — enumerate each unordered pair of rows once,
// and the join returns both orientations of it (DESIGN.md §21).
func UnorderedPairs(a, b Source, cfg Config) bool {
	_, _, self, err := geomColumns(a, b)
	return err == nil && cfg.unordered(self)
}

// unordered is the mirror row's condition; self as in resolveRoutes.
func (c Config) unordered(self bool) bool { return routeTable[routeMirror].applies(c, self) }

// routeSet holds one bit per route whose per-join conditions hold.
type routeSet uint8

func (s routeSet) has(r route) bool { return s&(1<<r) != 0 }

// String lists the set's routes in table order.
func (s routeSet) String() string {
	var names []string
	for r := range numRoutes {
		if s.has(r) {
			names = append(names, r.String())
		}
	}
	return strings.Join(names, ", ")
}

// resolveRoutes evaluates every route's per-join conditions for a join
// under c; self is set when both operands are the same column of the
// same table, read through the same index.
func resolveRoutes(c Config, self bool) routeSet {
	var s routeSet
	for r, row := range routeTable {
		if row.applies(c, self) {
			s |= 1 << r
		}
	}
	return s
}

// ProofRoutes lists, in table order, the routes a join of a and b under
// cfg may settle its pairs by — the set the join function resolves when
// it is built.
func ProofRoutes(a, b Source, cfg Config) (string, error) {
	_, _, self, err := geomColumns(a, b)
	if err != nil {
		return "", err
	}
	return resolveRoutes(cfg, self).String(), nil
}

// routeCount is what one route settled: pairs it returned and pairs it
// dropped.
type routeCount struct {
	kept, dropped int
}

// classify picks p's route from the leaf MBRs a and b it survived the
// primary filter on.
func (j *JoinFunction) classify(p Pair, a, b geom.MBR) route {
	return j.routes.pick(&j.cfg, a, b, p.A == p.B, false)
}

// pick is the per-pair test of the route table, the one function the
// join's classify and a window's Decide both call: the first route of
// s, in table order, whose test holds for a candidate with leaf MBRs a
// and b. same is set when the two are one row. The box route tests the
// smaller MBR against the other side's geometry (boxOf) or, when aBig
// is set, always b's MBR against a's geometry — a window's a is its
// in-memory query.
func (s routeSet) pick(c *Config, a, b geom.MBR, same, aBig bool) route {
	if s.has(routeOwner) && !c.owns(a, b) {
		return routeOwner
	}
	if s.has(routeSelf) && same {
		return routeSelf
	}
	if s.has(routePoints) && a.IsPoint() && b.IsPoint() {
		return routePoints
	}
	if s.has(routeBox) {
		// The test pays only for a box small beside its partner — grown
		// by the reach, at most half the other MBR's width and height;
		// a larger one is rarely clear of the partner's boundary, and is
		// refined without it (DESIGN.md §21).
		box, other := b, a
		if !aBig {
			box, other, _ = boxOf(a, b)
		}
		if w := box.Expand(c.Distance); 2*w.Width() <= other.Width() && 2*w.Height() <= other.Height() {
			return routeBox
		}
	}
	return routeRefine
}

// owns is the owner route's test: whether the scope, if any, owns the
// reference point of a pair with leaf MBRs a and b.
func (c *Config) owns(a, b geom.MBR) bool {
	return c.Owns == nil || c.Owns(PairRefPoint(a, b, c.Distance))
}

// boxOf splits a candidate's leaf MBRs for the box route: the box is
// the smaller one, other the partner, and big the side (0 = A, 1 = B)
// whose geometry the box is tested against.
func boxOf(a, b geom.MBR) (box, other geom.MBR, big uint8) {
	if a.Area() > b.Area() {
		return b, a, 0
	}
	return a, b, 1
}
