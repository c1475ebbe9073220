package sjoin

import "spatialtf/internal/geom"

// WindowOp is the predicate of a window statement: sdo_relate under
// Mask or, with Within set, sdo_within_distance at Distance.
type WindowOp struct {
	Mask     geom.Mask
	Within   bool
	Distance float64
}

// Window is the route table applied to a window statement, read as a
// join of its in-memory query geometry q (side A) against the indexed
// table (side B), so a candidate is settled where the index meets it
// (DESIGN.md §21). q's geometry is at hand: the box route is decided on
// the spot, with q always the big side. A window has no self or mirror
// route.
type Window struct {
	q      geom.Geometry
	qm     geom.MBR
	within bool
	cfg    Config
	routes routeSet
}

// Verdict is what a window's routes make of a candidate from its leaf
// MBR, before any fetch.
type Verdict uint8

// The three verdicts.
const (
	// Dropped: another shard owns the candidate, or its box lies beyond
	// reach of q.
	Dropped Verdict = iota
	// Proven: a result — a point meeting a point, or a box inside q.
	Proven
	// Refine: fetch the row and test its geometry (Accepts).
	Refine
)

// NewWindow resolves the routes of a window of q under op. owns, when
// not nil, is a cluster scope's owner test (Config.Owns); with leafOwner
// set Decide runs it on the candidate's leaf MBR, otherwise the caller
// runs it on the fetched row (Owns).
func NewWindow(q geom.Geometry, op WindowOp, owns func(x, y float64) bool, leafOwner bool) *Window {
	cfg := Config{Mask: op.Mask, Distance: op.Distance, Owns: owns}
	if op.Within {
		cfg.Mask = geom.MaskAnyInteract
	}
	routes := resolveRoutes(cfg, false)
	if !leafOwner {
		routes &^= 1 << routeOwner
	}
	return &Window{q: q, qm: geom.MBROf(q), within: op.Within, cfg: cfg, routes: routes}
}

// Decide settles a candidate from its leaf MBR r.
func (w *Window) Decide(r geom.MBR) Verdict {
	switch w.routes.pick(&w.cfg, w.qm, r, false, true) {
	case routeOwner:
		return Dropped
	case routePoints:
		return Proven
	case routeBox:
		switch geom.BoxSide(r, w.q, w.cfg.Distance) {
		case 1:
			return Proven
		case -1:
			return Dropped
		}
	}
	return Refine
}

// Owns is the owner route on a fetched row whose geometry has MBR r.
func (w *Window) Owns(r geom.MBR) bool { return w.cfg.owns(w.qm, r) }

// Accepts is the refine route: the operator's exact predicate, the
// row's geometry g against q.
func (w *Window) Accepts(g geom.Geometry) bool {
	if w.within {
		return geom.WithinDistance(g, w.q, w.cfg.Distance)
	}
	return geom.Relate(g, w.q, w.cfg.Mask)
}
