package sjoin

import (
	"fmt"
	"slices"
	"time"

	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
	"spatialtf/internal/telemetry"
)

// JoinFunction is the spatial_join pipelined table function of §4.2 —
// the only one: every join algorithm runs this evaluator and differs in
// the candidate source it is built over. Its state across fetch calls
// is:
//
//   - the candidate source: the resumable primary (index MBR) filter of
//     one algorithm, and
//   - the bounded candidate array the source fills and the geometry
//     (secondary) filter drains.
//
// Each fetch call resumes the source, refilling the candidate array as
// it empties, evaluating candidates exactly, and returning up to the
// requested number of result rowid pairs. When the source and array are
// empty the fetch returns an empty collection and the subsequent close
// releases resources.
//
// A select count(*) over the function runs it in count mode (CountJoin,
// RunJoinFunction): the function computes the aggregate itself. Every
// pair it would return adds to its count instead of its ready queue,
// and its fetch runs the source and the secondary filter to the end
// and returns one INT row, the count. The counted pairs stand in for
// the queue in the CandidateCap bound, and the fetch replays the
// streamed form's fetches of max pairs one after another, so the
// candidate arrays fill and empty where they would: the routes, the
// arrays, the sort, the exact test and the JoinStats are the streamed
// form's.
type JoinFunction struct {
	cfg Config

	// Operand tables and geometry columns for the secondary filter,
	// indexed by side: 0 is A, 1 is B.
	tabs [2]*storage.Table
	cols [2]int

	// grow is the tree sweep's side growth, sweepGrow of the operands.
	grow float64

	// Decoded-geometry cache consulted by the secondary filter (nil when
	// disabled). Shared across instances when Config.GeomCache is set.
	cache *GeomCache

	// The algorithm's primary filter.
	src candSource

	// The proof routes whose per-join conditions hold (routes.go).
	routes routeSet

	// Candidate arrays (primary-filter output awaiting the secondary
	// filter): boxed holds the candidates it tests by a leaf MBR first,
	// cands the rest as bare pairs, so sorting them moves 16 bytes a
	// pair.
	cands []Pair
	boxed []boxCand
	// drained counts the candidates the secondary filter has evaluated,
	// boxed first, since the arrays were last refilled.
	drained int

	// Verified results: ready[head:] are not yet returned by fetch. The
	// queue rewinds to ready[:0] when it empties, so its array is reused
	// from refill to refill.
	ready []Pair
	head  int

	// Count mode (Config.count): counted is stats.Results as of Start or
	// the last count row, so the count not yet returned is the growth
	// since; held is the part of it the replayed fetches have not taken,
	// the ready queue's length in the streamed form.
	counted, held int

	// Statistics, reported through JoinStats.
	stats JoinStats

	// Shared telemetry (nil when disabled): instr receives counter
	// deltas and stage latencies, trace is the per-query span sink,
	// flushed remembers what stats already reached instr.
	instr   *Instruments
	trace   *telemetry.Trace
	flushed JoinStats

	// Sampled geometry-fetch spans, pending until flushGeomSpans: gfSeq
	// picks the 1-in-16 sample, gfPending counts every fetch exactly,
	// gfNanos holds the scaled sampled duration. Plain ints — only this
	// instance touches them.
	gfSeq     int64
	gfPending int64
	gfNanos   int64
}

// boxCand is a candidate the secondary filter tests by its box, the
// smaller of the pair's two leaf MBRs, against the geometry of the side
// big (0 = A, 1 = B) before it refines it.
type boxCand struct {
	Pair
	box geom.MBR
	big uint8
}

// compareBoxed orders the boxed candidates on their pairs.
func compareBoxed(x, y boxCand) int { return comparePairs(x.Pair, y.Pair) }

// candSource is the primary filter of one join algorithm, resumable
// between fetch calls. The evaluator calls it once per candidate-array
// refill; the source's own loops hand each survivor to
// JoinFunction.emit directly, so nothing is dispatched per candidate.
type candSource interface {
	// start arms the source for a run from its beginning.
	start()
	// refill resumes the primary filter, emitting survivors until the
	// candidate array and the ready queue together hold CandidateCap
	// pairs (JoinFunction.room) or the source is exhausted. An exhausted
	// source emits nothing.
	refill(j *JoinFunction)
}

// room is how many more pairs a refill may emit before the candidate
// arrays and the ready queue together reach CandidateCap. Proven pairs
// count against it like candidates: a join whose every pair is proven
// from the index would otherwise fill no candidate array, run its whole
// source in one refill and materialise the result in ready — and the
// first grid instance would claim every tile. Under the mirror mode a
// candidate counts twice: it returns both orientations.
func (j *JoinFunction) room() int {
	queued := len(j.cands) + len(j.boxed)
	if j.routes.has(routeMirror) {
		queued *= 2
	}
	return j.cfg.CandidateCap - queued - j.pending()
}

// pending is the number of verified results fetch has not returned.
func (j *JoinFunction) pending() int { return len(j.ready) - j.head + j.held }

// JoinStats counts the work a join did; benches report them.
type JoinStats struct {
	// NodePairsVisited counts stack pops (index-level work).
	NodePairsVisited int
	// NodeAccesses counts index node reads — the logical "buffer gets"
	// a disk-resident execution would issue against the index segments.
	// The synchronized tree join reads the two nodes of each visited
	// pair; the nested loop re-descends the inner index per outer row.
	NodeAccesses int
	// Candidates counts the primary-filter survivors queued for the
	// secondary filter (the box and refine routes).
	Candidates int
	// Results counts the pairs returned.
	Results int
	// GeomFetches counts base-table geometry fetches in the secondary
	// filter (cache hits on the sorted outer side avoid fetches).
	GeomFetches int
	// routes counts, per proof route, the pairs it returned (kept: the
	// self and point proofs, the mirror images, the box hits, the
	// refined pairs that passed) and dropped (the owner test's unowned
	// pairs, the box misses, the refined pairs that failed). The kept
	// counts sum to Results; registry counters are fed from it
	// (flushStats).
	routes [numRoutes]routeCount
	// CacheHits / CacheMisses count decoded-geometry cache lookups by
	// the secondary filter (both zero when the cache is disabled).
	CacheHits   int
	CacheMisses int
	// TilesSwept counts grid tiles swept by the grid-partitioned path
	// (zero on the R-tree paths).
	TilesSwept int
}

// newJoinFn builds the evaluator over one candidate source.
func newJoinFn(a, b Source, cfg Config, src candSource) (*JoinFunction, error) {
	colA, colB, self, err := geomColumns(a, b)
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	return &JoinFunction{
		cfg:    cfg,
		tabs:   [2]*storage.Table{a.Table, b.Table},
		cols:   [2]int{colA, colB},
		grow:   sweepGrow(cfg.Distance, a.Tree.Bounds(), b.Tree.Bounds()),
		routes: resolveRoutes(cfg, self),
		cache:  cfg.resolveCache(),
		src:    src,
		instr:  cfg.Instr,
		trace:  cfg.Trace,
	}, nil
}

// Start implements TableFunction: "the metadata of the two R-tree
// indexes ... is loaded and the subtree roots ... are pushed onto a
// stack". A started function can be started again to re-run the join.
func (j *JoinFunction) Start() error {
	j.src.start()
	j.cands, j.boxed, j.ready, j.head, j.drained = j.cands[:0], j.boxed[:0], j.ready[:0], 0, 0
	j.counted, j.held = j.stats.Results, 0
	return nil
}

// Fetch implements TableFunction: resume the join from its source and
// append up to max result pairs to b. A traced fetch that returns pairs
// records one ready-drain span (StageDrain) for the time it spent
// moving them into b. In count mode a drain only takes the pairs off
// held, and a full fetch starts the next: the loop runs until the
// source is exhausted, and the fetch returns the count as one row; the
// next fetch returns nothing.
func (j *JoinFunction) Fetch(b *storage.Batch, max int) error {
	var drain time.Duration
	n := 0
	for n < max {
		// Drain verified results first.
		if k := min(j.pending(), max-n); k > 0 {
			if j.cfg.count {
				j.held -= k
				n = (n + k) % max // a full fetch starts the next
				continue
			}
			drain += j.drainReady(b, k)
			n += k
			continue
		}
		if len(j.cands)+len(j.boxed) == 0 {
			// Refill the candidate arrays by resuming the primary filter.
			j.src.refill(j)
			if len(j.cands)+len(j.boxed) == 0 {
				if j.pending() == 0 {
					break // source exhausted and nothing pending: join complete
				}
				continue
			}
			j.sortCandidates()
		}
		if err := j.secondaryFilter(); err != nil {
			return err
		}
	}
	if n > 0 && !j.cfg.count {
		j.trace.Add(telemetry.StageDrain, drain, 1)
	}
	if c := j.stats.Results - j.counted; j.cfg.count && c > 0 {
		b.Extend(1, 1)[0][0] = storage.Int(int64(c))
		j.counted = j.stats.Results
	}
	j.flushStats()
	return nil
}

// drainReady moves the next k verified pairs of the ready queue into b
// as rows, returning the time it took when the join is traced.
func (j *JoinFunction) drainReady(b *storage.Batch, k int) time.Duration {
	var t0 time.Time
	if j.trace != nil {
		t0 = time.Now()
	}
	appendPairRows(b, j.ready[j.head:j.head+k])
	j.head += k
	if j.head == len(j.ready) {
		j.ready, j.head = j.ready[:0], 0
	}
	if j.trace == nil {
		return 0
	}
	return time.Since(t0)
}

// emit is the one exit of every primary filter: p survived the index
// MBR test of its source, a and b are the two leaf-entry MBRs it
// survived on. It settles p by its proof route (classify): dropped
// (owner), proven and returned (self, points: keep), or queued for the
// secondary filter (box, refine). The owner test thus runs ahead of
// every other route, so an unowned pair costs neither a geometry fetch
// nor an exact predicate, and a proven pair is owner-filtered like any
// other. Under the mirror mode the source hands over each unordered
// pair once: emit puts the lower rowid first, returns a proven pair of
// two rows in both orientations, and queues the candidate whose mirror
// image accept returns.
func (j *JoinFunction) emit(p Pair, a, b geom.MBR) {
	unordered := j.routes.has(routeMirror)
	if unordered && p.B.Less(p.A) {
		p, a, b = Pair{A: p.B, B: p.A}, b, a
	}
	switch r := j.classify(p, a, b); r {
	case routeOwner:
		j.stats.routes[r].dropped++
	case routeSelf, routePoints:
		j.stats.routes[r].kept += j.keep(p, unordered && p.A != p.B)
	case routeBox:
		j.stats.Candidates++
		box, _, big := boxOf(a, b)
		j.boxed = append(j.boxed, boxCand{p, box, big})
	case routeRefine:
		j.stats.Candidates++
		j.cands = append(j.cands, p)
	}
}

// flushGeomSpans moves the pending sampled geometry-fetch spans to the
// shared trace (one pair of atomic adds per drain, not per fetch).
func (j *JoinFunction) flushGeomSpans() {
	if j.gfPending == 0 {
		return
	}
	j.trace.Add(telemetry.StageGeomFetch, time.Duration(j.gfNanos), j.gfPending)
	j.gfPending, j.gfNanos = 0, 0
}

// Close implements TableFunction.
func (j *JoinFunction) Close() error {
	j.flushGeomSpans()
	j.flushStats()
	j.cands, j.boxed, j.ready, j.head, j.drained = nil, nil, nil, 0, 0
	return nil
}

// Stats returns the accumulated work counters.
func (j *JoinFunction) Stats() JoinStats { return j.stats }

// treeSource is the synchronized R-tree traversal: the candidate source
// of the serial join and of each subtree-parallel instance.
type treeSource struct {
	// roots are pushed by start: the serial join's one root pair, so a
	// restarted function re-runs the join.
	roots []PairOfRoots
	// queue is the parallel join's shared subtree-pair queue (nil on the
	// serial join): the instance claims its next pair whenever its
	// stack empties.
	queue *pairQueue
	// Traversal stack of node pairs still to be visited.
	stack []PairOfRoots
	// Plane-sweep scratch: the two entry lists of the current node pair,
	// sorted by low x. Reused across node pairs to avoid allocation.
	sweepA, sweepB []sweepEntry
}

func (s *treeSource) start() {
	s.stack = append(s.stack[:0], s.roots...)
}

// refill runs the synchronized R-tree traversal until the refill has no
// room left or the stack empties with no pair left to claim — the
// primary (index MBR) filter. One node pair is expanded whole, so the
// candidate array and the ready queue can overshoot CandidateCap by one
// node pair's entry pairs. Equal-height node pairs are intersected by
// the plane sweep (sweepNodes). Under the mirror mode a node paired
// with itself is expanded by a self-sweep, so the traversal meets each
// unordered pair of entries, and of children, once; a pair of distinct
// nodes holds disjoint entries and expands as in any other join.
func (s *treeSource) refill(j *JoinFunction) {
	if len(s.stack) == 0 && !s.claim() {
		return
	}
	end := j.span(telemetry.StagePrimary)
	unordered := j.routes.has(routeMirror)
	for j.room() > 0 && (len(s.stack) > 0 || s.claim()) {
		top := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		j.stats.NodePairsVisited++
		j.stats.NodeAccesses += 2
		a, b := top.A, top.B
		selfPaired := unordered && a == b
		switch {
		case a.IsLeaf() && b.IsLeaf():
			s.sweepNodes(j, a, b, selfPaired, func(e, o *sweepEntry) {
				j.emit(Pair{A: a.EntryID(int(e.idx)), B: b.EntryID(int(o.idx))}, e.MBR, o.MBR)
			})
		case !a.IsLeaf() && !b.IsLeaf():
			// Descend both sides, pairing children whose MBRs interact.
			s.sweepNodes(j, a, b, selfPaired, func(e, o *sweepEntry) {
				s.stack = append(s.stack, PairOfRoots{a.Child(int(e.idx)), b.Child(int(o.idx))})
			})
		case a.IsLeaf():
			// Unequal heights: descend only the taller (b) side.
			for k := 0; k < b.NumEntries(); k++ {
				if j.cfg.primaryAccepts(a.MBR(), b.EntryMBR(k)) {
					s.stack = append(s.stack, PairOfRoots{a, b.Child(k)})
				}
			}
		default:
			for i := 0; i < a.NumEntries(); i++ {
				if j.cfg.primaryAccepts(a.EntryMBR(i), b.MBR()) {
					s.stack = append(s.stack, PairOfRoots{a.Child(i), b})
				}
			}
		}
	}
	end()
}

// sweepNodes fills the scratch lists with the entries of nodes a and b
// and sweeps them, a as side A; a node paired with itself (self) fills
// one list and sweeps it in self mode.
func (s *treeSource) sweepNodes(j *JoinFunction, a, b rtree.NodeRef, self bool, emit func(e, o *sweepEntry)) {
	s.sweepA = fillSweep(s.sweepA, a)
	eb := s.sweepA
	if !self {
		s.sweepB = fillSweep(s.sweepB, b)
		eb = s.sweepB
	}
	sweep(s.sweepA, eb, j.grow, j.cfg.Distance, self, emit)
}

// claim pushes the next subtree pair off the shared queue, reporting
// false when there is no queue or it is exhausted.
func (s *treeSource) claim() bool {
	if s.queue == nil {
		return false
	}
	k := claimNext(&s.queue.next, len(s.queue.pairs))
	if k < 0 {
		return false
	}
	s.stack = append(s.stack, s.queue.pairs[k])
	return true
}

// sortCandidates orders the refilled candidate arrays for the
// secondary filter. Per §4.2 each array is sorted on the first rowid
// before fetching (Shekhar et al. show optimal fetch order is
// NP-complete and rowid-sort is within ~20% of the best
// approximations); sorting also lets consecutive candidates sharing a
// rowid reuse one fetched geometry (sideGeom).
func (j *JoinFunction) sortCandidates() {
	if !j.cfg.SortCandidates {
		return
	}
	end := j.span(telemetry.StageSort)
	slices.SortFunc(j.boxed, compareBoxed)
	slices.SortFunc(j.cands, comparePairs)
	end()
}

// secondaryFilter drains the candidate arrays, boxed candidates first:
// fetch exact geometries and keep pairs satisfying the exact predicate.
// It stops once the ready queue holds CandidateCap pairs and the next
// call resumes there, so the queue stays within CandidateCap plus one
// node pair even where every kept candidate returns two pairs (the
// mirror mode). Fetches on both sides go through the decoded-geometry
// cache, so repeated rowids — across candidate batches, join sides of a
// self-join, or parallel instances sharing a cache — skip the
// base-table decode entirely.
func (j *JoinFunction) secondaryFilter() error {
	endDrain := j.span(telemetry.StageSecondary)
	defer func() {
		j.flushGeomSpans()
		endDrain()
	}()
	var last [2]fetched
	for ; j.drained < len(j.boxed) && j.pending() < j.cfg.CandidateCap; j.drained++ {
		c := &j.boxed[j.drained]
		ok, err := j.decide(c, &last)
		if err != nil {
			return err
		}
		if ok {
			j.accept(c.Pair)
		}
	}
	for ; j.drained < len(j.boxed)+len(j.cands) && j.pending() < j.cfg.CandidateCap; j.drained++ {
		p := j.cands[j.drained-len(j.boxed)]
		ok, err := j.refine(p, &last)
		if err != nil {
			return err
		}
		if ok {
			j.accept(p)
		}
	}
	if j.drained == len(j.boxed)+len(j.cands) {
		j.cands, j.boxed, j.drained = j.cands[:0], j.boxed[:0], 0
	}
	return nil
}

// accept returns a candidate the secondary filter kept; under the
// mirror mode it returns the pair's mirror image with it, decided by
// the same fetches and the same test.
func (j *JoinFunction) accept(p Pair) {
	j.stats.routes[routeMirror].kept += j.keep(p, j.routes.has(routeMirror) && p.A != p.B) - 1
}

// keep returns a settled pair, with its mirror image when mirrored, and
// reports how many results that is: it queues them on ready, or in
// count mode only counts them.
func (j *JoinFunction) keep(p Pair, mirrored bool) int {
	n := 1
	if mirrored {
		n = 2
	}
	j.stats.Results += n
	if j.cfg.count {
		j.held += n
		return n
	}
	j.ready = append(j.ready, p)
	if mirrored {
		j.ready = append(j.ready, Pair{A: p.B, B: p.A})
	}
	return n
}

// fetched is the geometry the secondary filter fetched last on one side
// of the join (valid when ok is set).
type fetched struct {
	id       storage.RowID
	g        geom.Geometry
	live, ok bool
}

// sideGeom returns the geometry of p's row on side s, reusing the one
// fetched last on that side: sorted candidates come in runs of one
// first rowid.
func (j *JoinFunction) sideGeom(last *[2]fetched, p Pair, s uint8) (geom.Geometry, bool, error) {
	id := p.A
	if s == 1 {
		id = p.B
	}
	f := &last[s]
	if !f.ok || f.id != id {
		g, live, err := j.fetchGeom(j.tabs[s], j.cols[s], id)
		if err != nil {
			return geom.Geometry{}, false, err
		}
		*f = fetched{id: id, g: g, live: live, ok: true}
	}
	return f.g, f.live, nil
}

// decide evaluates a boxed candidate: it fetches the side with the
// larger leaf MBR and classifies the box against that geometry
// (geom.BoxSide, DESIGN.md §21); only when that decides nothing is the
// candidate refined. A row deleted since the statement started drops
// the candidate where it is fetched (fetchGeom), and goes unseen where
// its box decides.
func (j *JoinFunction) decide(c *boxCand, last *[2]fetched) (bool, error) {
	g, live, err := j.sideGeom(last, c.Pair, c.big)
	if err != nil || !live {
		return false, err
	}
	switch geom.BoxSide(c.box, g, j.cfg.Distance) {
	case 1:
		j.stats.routes[routeBox].kept++
		return true, nil
	case -1:
		j.stats.routes[routeBox].dropped++
		return false, nil
	}
	return j.refine(c.Pair, last)
}

// refine fetches both geometries of p and runs the exact predicate.
func (j *JoinFunction) refine(p Pair, last *[2]fetched) (bool, error) {
	ga, live, err := j.sideGeom(last, p, 0)
	if err != nil || !live {
		return false, err
	}
	gb, live, err := j.sideGeom(last, p, 1)
	if err != nil || !live {
		return false, err
	}
	ok := j.cfg.secondaryAccepts(ga, gb)
	if ok {
		j.stats.routes[routeRefine].kept++
	} else {
		j.stats.routes[routeRefine].dropped++
	}
	return ok, nil
}

// geomSampleMask times one geometry fetch in 16 and scales the sampled
// duration up: per-fetch clock reads are the one per-candidate cost, so
// even a traced query only pays them on the sample.
const geomSampleMask = 15

// fetchGeom resolves one geometry for the secondary filter through the
// cache, maintaining the fetch and cache counters. A row deleted since
// the statement started is not an error: its index entry outlives it
// (Table.Delete removes the heap row before the index hook waits for
// the join's pin), so it reports the row not live and the secondary
// filter drops the candidate — read committed per fetch, as at every
// other place a statement fetches a row it resolved earlier. When a
// per-query trace is attached, fetches are counted exactly but timed by
// sampling: the pending totals sit in plain per-instance fields and
// reach the shared trace through flushGeomSpans once per drain.
func (j *JoinFunction) fetchGeom(tab *storage.Table, col int, id storage.RowID) (geom.Geometry, bool, error) {
	var t0 time.Time
	sampled := false
	if j.trace != nil {
		sampled = j.gfSeq&geomSampleMask == 0
		j.gfSeq++
		j.gfPending++
		if sampled {
			t0 = time.Now()
		}
	}
	g, hit, live, err := cachedFetch(j.cache, tab, col, id)
	if sampled {
		j.gfNanos += int64(time.Since(t0)) * (geomSampleMask + 1)
	}
	if err != nil {
		return geom.Geometry{}, false, fmt.Errorf("sjoin: fetch %v from %q: %w", id, tab.Name(), err)
	}
	if !live {
		return geom.Geometry{}, false, nil
	}
	if hit {
		j.stats.CacheHits++
		return g, true, nil
	}
	j.stats.GeomFetches++
	if j.cache != nil {
		j.stats.CacheMisses++
	}
	return g, true, nil
}

// IndexJoin evaluates the spatial join of a and b through a single
// pipelined spatial_join table function — the §4 formulation
//
//	select rid1, rid2 from TABLE(spatial_join(tabA, colA, tabB, colB, mask))
//
// The returned cursor streams (rid1, rid2) rows; decode with
// PairFromRow or drain with CollectPairs.
func IndexJoin(a, b Source, cfg Config) (storage.Cursor, error) {
	fn, err := NewJoinFunction(a, b, cfg)
	if err != nil {
		return nil, err
	}
	return pipeline(fn, cfg), nil
}

// pipeline is the serial execution of a join function: a pull cursor
// over start-fetch-close.
func pipeline(fn *JoinFunction, cfg Config) storage.Cursor {
	return tablefunc.Pipeline(tablefunc.Traced(fn, cfg.Trace), cfg.FetchBatch)
}

// RunJoinFunction is "select count(*)" over one join function: it puts
// fn in count mode, runs it to completion and returns the result-pair
// count and the work counters, through the drain CountJoin uses. batch
// is the fetch size (<= 0: the default): fn returns its one count row
// from its first fetch, in which it replays the streamed fetches of
// that size, so its JoinStats are those of a row drain by that size.
func RunJoinFunction(fn *JoinFunction, batch int) (int, JoinStats, error) {
	fn.cfg.count = true
	n, err := sumCounts(tablefunc.Pipeline(fn, batch))
	return n, fn.Stats(), err
}

// Join runs the join of a and b on plan and returns its cursor of
// (rid1, rid2) rows: the one place a plan's algorithm is dispatched.
func Join(a, b Source, cfg Config, plan PlanChoice) (storage.Cursor, error) {
	switch {
	case plan.Algo == AlgoGrid:
		return GridParallelJoin(a, b, cfg, plan.Workers)
	case plan.Algo == AlgoNested:
		pairs, err := NestedLoop(a, b, cfg)
		if err != nil {
			return nil, err
		}
		if cfg.count {
			return storage.NewSliceCursor(nil, []storage.Row{{storage.Int(int64(len(pairs)))}}), nil
		}
		return PairsCursor(pairs), nil
	case plan.Workers > 1:
		return ParallelIndexJoin(a, b, cfg, plan.Workers)
	}
	return IndexJoin(a, b, cfg)
}

// CountJoin is "select count(*)" over Join: every instance of the join
// function runs in count mode and returns its count as one row, and one
// drain sums them. The nested loop, kept apart as the reference,
// returns the length of its pair list as its one row.
func CountJoin(a, b Source, cfg Config, plan PlanChoice) (int, error) {
	cfg.count = true
	cur, err := Join(a, b, cfg, plan)
	if err != nil {
		return 0, err
	}
	return sumCounts(cur)
}

// sumCounts is the count drain: it sums the INT rows of a counting
// join's cursor — one per instance that counted a pair — and closes it.
func sumCounts(cur storage.Cursor) (int, error) {
	defer cur.Close()
	n := 0
	var b storage.Batch
	for {
		b.Reset()
		if err := cur.NextBatch(&b, 0); err != nil {
			return 0, err
		}
		if len(b.Rows) == 0 {
			return n, cur.Close()
		}
		for _, row := range b.Rows {
			n += int(row[0].I)
		}
	}
}

// NewJoinFunction returns the spatial_join table function joining the
// roots of both indexes, for callers that drive start-fetch-close
// directly (the facade and tests).
func NewJoinFunction(a, b Source, cfg Config) (*JoinFunction, error) {
	var roots []PairOfRoots
	if a.Tree.Len() > 0 && b.Tree.Len() > 0 {
		roots = []PairOfRoots{{a.Tree.Root(), b.Tree.Root()}}
	}
	return newJoinFn(a, b, cfg, &treeSource{roots: roots})
}
