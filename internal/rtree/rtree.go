// Package rtree implements the R-tree spatial index of Oracle Spatial as
// described in the paper: a Guttman-style dynamic R-tree with quadratic
// node splits, an STR packed bulk loader, a parallel subtree build used
// by the paper's §5 parallel index creation, and subtree-root
// enumeration at a chosen level used by the §4.1 parallel spatial join.
//
// The tree indexes geometry MBRs keyed by rowid; the exact geometries
// stay in the base table and are fetched by the join's secondary filter.
//
// Node entry rectangles are stored in a structure-of-arrays layout
// (contiguous xlo/ylo/xhi/yhi float64 slices per node) so the hot scans
// — window queries, nearest-neighbour expansion, and the spatial join's
// plane-sweep primary filter — walk flat cache-resident arrays instead
// of chasing per-entry structs (cf. SIMD-ified R-tree query processing).
package rtree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// DefaultMaxEntries is the default node fanout. The metadata row of an
// Oracle Spatial R-tree records the same parameter.
const DefaultMaxEntries = 32

// ErrNotFound is returned by Delete when (id, mbr) is not in the tree.
var ErrNotFound = errors.New("rtree: entry not found")

// Item is one indexed datum: the MBR approximation of a geometry and the
// rowid of the base-table row holding the exact geometry.
type Item struct {
	MBR geom.MBR
	ID  storage.RowID
}

// entry is a detached node slot used by the cold restructuring paths
// (split, condense, reinsertion): child is set for internal slots, item
// fields for leaf slots. The resident layout inside a node is SoA; an
// entry is only materialised while entries move between nodes.
type entry struct {
	mbr   geom.MBR
	child *node
	id    storage.RowID
}

// node stores its entry rectangles as four parallel coordinate slices
// (structure of arrays); slot i's rectangle is
// (xlo[i], ylo[i], xhi[i], yhi[i]). children is parallel on internal
// nodes; ids is parallel on leaves.
type node struct {
	leaf               bool
	xlo, ylo, xhi, yhi []float64
	children           []*node
	ids                []storage.RowID
}

// newNode returns an empty node with capacity for capHint entries.
func newNode(leaf bool, capHint int) *node {
	n := &node{leaf: leaf}
	if capHint > 0 {
		coords := make([]float64, 0, 4*capHint)
		n.xlo = coords[0:0:capHint]
		n.ylo = coords[capHint : capHint : 2*capHint]
		n.xhi = coords[2*capHint : 2*capHint : 3*capHint]
		n.yhi = coords[3*capHint : 3*capHint : 4*capHint]
		if leaf {
			n.ids = make([]storage.RowID, 0, capHint)
		} else {
			n.children = make([]*node, 0, capHint)
		}
	}
	return n
}

// count returns the number of occupied slots.
func (n *node) count() int { return len(n.xlo) }

// rect returns slot i's rectangle.
func (n *node) rect(i int) geom.MBR {
	return geom.MBR{MinX: n.xlo[i], MinY: n.ylo[i], MaxX: n.xhi[i], MaxY: n.yhi[i]}
}

// setRect overwrites slot i's rectangle.
func (n *node) setRect(i int, m geom.MBR) {
	n.xlo[i], n.ylo[i], n.xhi[i], n.yhi[i] = m.MinX, m.MinY, m.MaxX, m.MaxY
}

// pushRect appends a rectangle, growing all four coordinate slices.
func (n *node) pushRect(m geom.MBR) {
	n.xlo = append(n.xlo, m.MinX)
	n.ylo = append(n.ylo, m.MinY)
	n.xhi = append(n.xhi, m.MaxX)
	n.yhi = append(n.yhi, m.MaxY)
}

// pushLeaf appends a data slot to a leaf.
func (n *node) pushLeaf(m geom.MBR, id storage.RowID) {
	n.pushRect(m)
	n.ids = append(n.ids, id)
}

// pushChild appends a child slot to an internal node.
func (n *node) pushChild(m geom.MBR, c *node) {
	n.pushRect(m)
	n.children = append(n.children, c)
}

// pushEntry appends a detached entry, dispatching on the node kind.
func (n *node) pushEntry(e entry) {
	if n.leaf {
		n.pushLeaf(e.mbr, e.id)
	} else {
		n.pushChild(e.mbr, e.child)
	}
}

// entryAt detaches slot i into an entry value.
func (n *node) entryAt(i int) entry {
	e := entry{mbr: n.rect(i)}
	if n.leaf {
		e.id = n.ids[i]
	} else {
		e.child = n.children[i]
	}
	return e
}

// appendEntries detaches every slot into dst and returns it.
func (n *node) appendEntries(dst []entry) []entry {
	for i := 0; i < n.count(); i++ {
		dst = append(dst, n.entryAt(i))
	}
	return dst
}

// removeAt deletes slot i, preserving slot order.
func (n *node) removeAt(i int) {
	n.xlo = append(n.xlo[:i], n.xlo[i+1:]...)
	n.ylo = append(n.ylo[:i], n.ylo[i+1:]...)
	n.xhi = append(n.xhi[:i], n.xhi[i+1:]...)
	n.yhi = append(n.yhi[:i], n.yhi[i+1:]...)
	if n.leaf {
		n.ids = append(n.ids[:i], n.ids[i+1:]...)
	} else {
		n.children = append(n.children[:i], n.children[i+1:]...)
	}
}

// reset empties the node, keeping its backing arrays.
func (n *node) reset() {
	n.xlo, n.ylo, n.xhi, n.yhi = n.xlo[:0], n.ylo[:0], n.xhi[:0], n.yhi[:0]
	if n.leaf {
		n.ids = n.ids[:0]
	} else {
		// Drop child pointers so condensed subtrees can be collected.
		for i := range n.children {
			n.children[i] = nil
		}
		n.children = n.children[:0]
	}
}

// truncate keeps the first k slots of an internal node, dropping the
// rest (condense compacts in place and then truncates).
func (n *node) truncate(k int) {
	n.xlo, n.ylo, n.xhi, n.yhi = n.xlo[:k], n.ylo[:k], n.xhi[:k], n.yhi[:k]
	for i := k; i < len(n.children); i++ {
		n.children[i] = nil
	}
	n.children = n.children[:k]
}

func (n *node) mbr() geom.MBR {
	if n.count() == 0 {
		return geom.EmptyMBR()
	}
	m := n.rect(0)
	for i := 1; i < n.count(); i++ {
		if n.xlo[i] < m.MinX {
			m.MinX = n.xlo[i]
		}
		if n.ylo[i] < m.MinY {
			m.MinY = n.ylo[i]
		}
		if n.xhi[i] > m.MaxX {
			m.MaxX = n.xhi[i]
		}
		if n.yhi[i] > m.MaxY {
			m.MaxY = n.yhi[i]
		}
	}
	return m
}

// Tree is an R-tree. Readers (queries, joins, subtree enumeration) may
// run concurrently; writers are exclusive. NodeRef handles obtained from
// Root or SubtreeRoots are only valid while the tree is not being
// modified; long-lived traversals (streaming join cursors) must hold a
// Pin for their lifetime, which blocks writers without excluding other
// readers.
type Tree struct {
	mu         sync.RWMutex
	root       *node
	height     int // leaves are level 1
	size       int
	maxEntries int
	minEntries int

	// pinMu gates structural writes against long-lived NodeRef readers.
	// It is deliberately separate from mu: pinned code paths call the
	// RLock-taking accessors (Root, SubtreeRoots, Len, ...) and nesting
	// RLock acquisitions on one RWMutex can deadlock when a writer is
	// queued between them.
	pinMu sync.RWMutex
	// seq is a process-unique creation number; callers pinning several
	// trees acquire pins in seq order to avoid lock-order inversions.
	seq uint64
}

// treeSeq numbers trees as they are constructed.
var treeSeq atomic.Uint64

// New returns an empty tree with the given maximum node fanout
// (0 selects DefaultMaxEntries). Minimum occupancy is 40 % of maximum,
// the usual Guttman recommendation.
func New(maxEntries int) *Tree {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxEntries < 4 {
		maxEntries = 4
	}
	minEntries := maxEntries * 2 / 5
	if minEntries < 2 {
		minEntries = 2
	}
	return &Tree{
		root:       newNode(true, 0),
		height:     1,
		maxEntries: maxEntries,
		minEntries: minEntries,
		seq:        treeSeq.Add(1),
	}
}

// Seq returns the tree's process-unique creation number, the canonical
// pin-acquisition order for multi-tree operations.
func (t *Tree) Seq() uint64 { return t.seq }

// Pin accounting, package-wide: how many pins were ever taken and how
// many are held right now. A pin is per-cursor (not per-row), so two
// atomic adds are noise next to the traversal it protects. Exposed as
// scrape-time views by DB.EnableTelemetry.
var (
	pinsTotal atomic.Int64
	pinsHeld  atomic.Int64
)

// PinStats reports the package-wide pin counters: pins ever taken and
// pins currently held.
func PinStats() (total, held int64) {
	return pinsTotal.Load(), pinsHeld.Load()
}

// Pin blocks structural modification of the tree until Unpin, without
// excluding other readers. Cursors that traverse NodeRefs across many
// fetch calls (the pipelined spatial join) pin the operand trees for the
// cursor's lifetime so concurrent DML waits instead of racing the
// traversal.
func (t *Tree) Pin() {
	t.pinMu.RLock()
	pinsTotal.Add(1)
	pinsHeld.Add(1)
}

// Unpin releases a Pin.
func (t *Tree) Unpin() {
	pinsHeld.Add(-1)
	t.pinMu.RUnlock()
}

// Len returns the number of indexed items.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Height returns the tree height (1 for a leaf-only tree).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// MaxEntries returns the node fanout parameter.
func (t *Tree) MaxEntries() int { return t.maxEntries }

// Bounds returns the MBR of everything in the tree.
func (t *Tree) Bounds() geom.MBR {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root.mbr()
}

// Insert adds item to the tree.
func (t *Tree) Insert(item Item) error {
	if !item.MBR.Valid() {
		return fmt.Errorf("rtree: insert %v: invalid MBR %v", item.ID, item.MBR)
	}
	t.pinMu.Lock()
	defer t.pinMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insertAtLevel(entry{mbr: item.MBR, id: item.ID}, 1)
	t.size++
	return nil
}

// insertAtLevel places e at the given level (1 = leaf), splitting and
// growing the root as needed.
func (t *Tree) insertAtLevel(e entry, level int) {
	split := t.insertInto(t.root, e, level, t.height)
	if split != nil {
		old := t.root
		t.root = newNode(false, 2)
		t.root.pushChild(old.mbr(), old)
		t.root.pushChild(split.mbr(), split)
		t.height++
	}
}

// insertInto descends from n (at nodeLevel) to the target level, inserts
// e, and returns a new sibling if n split.
func (t *Tree) insertInto(n *node, e entry, level, nodeLevel int) *node {
	if nodeLevel == level {
		n.pushEntry(e)
		if n.count() > t.maxEntries {
			return t.splitNode(n)
		}
		return nil
	}
	i := chooseSubtree(n, e.mbr)
	child := n.children[i]
	split := t.insertInto(child, e, level, nodeLevel-1)
	n.setRect(i, child.mbr())
	if split != nil {
		n.pushChild(split.mbr(), split)
		if n.count() > t.maxEntries {
			return t.splitNode(n)
		}
	}
	return nil
}

// chooseSubtree picks the child whose MBR needs least enlargement to
// absorb m, breaking ties by smaller area (Guttman's ChooseLeaf).
//
//spatiallint:ignore floateq heuristic tie-break on computed areas; a missed exact tie only changes which child absorbs the entry
func chooseSubtree(n *node, m geom.MBR) int {
	best := 0
	bestEnl := n.rect(0).Enlargement(m)
	bestArea := n.rect(0).Area()
	for i := 1; i < n.count(); i++ {
		r := n.rect(i)
		enl := r.Enlargement(m)
		area := r.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// splitNode performs Guttman's quadratic split in place, leaving half
// the entries in n and returning a new sibling with the rest.
func (t *Tree) splitNode(n *node) *node {
	entries := n.appendEntries(make([]entry, 0, n.count()))
	// Pick seeds: the pair wasting the most area if grouped together.
	s1, s2 := pickSeeds(entries)
	g1 := []entry{entries[s1]}
	g2 := []entry{entries[s2]}
	m1 := entries[s1].mbr
	m2 := entries[s2].mbr
	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// Force assignment if one group must take all remaining to meet
		// the minimum.
		if len(g1)+len(rest) == t.minEntries {
			for _, e := range rest {
				g1 = append(g1, e)
				m1 = m1.Union(e.mbr)
			}
			break
		}
		if len(g2)+len(rest) == t.minEntries {
			for _, e := range rest {
				g2 = append(g2, e)
				m2 = m2.Union(e.mbr)
			}
			break
		}
		// PickNext: the entry with the greatest preference difference.
		bestIdx, bestDiff := -1, -1.0
		var bestD1, bestD2 float64
		for i, e := range rest {
			d1 := m1.Enlargement(e.mbr)
			d2 := m2.Enlargement(e.mbr)
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff = i, diff
				bestD1, bestD2 = d1, d2
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		// Assign to the group needing less enlargement; ties by area,
		// then by count.
		toG1 := false
		switch {
		case bestD1 < bestD2:
			toG1 = true
		case bestD2 < bestD1:
			toG1 = false
		case m1.Area() < m2.Area():
			toG1 = true
		case m2.Area() < m1.Area():
			toG1 = false
		default:
			toG1 = len(g1) <= len(g2)
		}
		if toG1 {
			g1 = append(g1, e)
			m1 = m1.Union(e.mbr)
		} else {
			g2 = append(g2, e)
			m2 = m2.Union(e.mbr)
		}
	}
	n.reset()
	for _, e := range g1 {
		n.pushEntry(e)
	}
	sib := newNode(n.leaf, len(g2))
	for _, e := range g2 {
		sib.pushEntry(e)
	}
	return sib
}

// pickSeeds returns the indexes of the two entries whose combined MBR
// wastes the most area.
func pickSeeds(entries []entry) (int, int) {
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			waste := entries[i].mbr.Union(entries[j].mbr).Area() -
				entries[i].mbr.Area() - entries[j].mbr.Area()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	return s1, s2
}

// Delete removes the item with the given id whose stored MBR intersects
// item.MBR. It implements Guttman's CondenseTree: underflowing nodes are
// dissolved and their data entries reinserted.
func (t *Tree) Delete(item Item) error {
	t.pinMu.Lock()
	defer t.pinMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf, idx := t.findLeaf(t.root, item)
	if leaf == nil {
		return fmt.Errorf("%w: %v", ErrNotFound, item.ID)
	}
	leaf.removeAt(idx)
	t.size--
	var orphans []entry
	t.condense(t.root, t.height, &orphans)
	// Shrink the root if it has a single child.
	for !t.root.leaf && t.root.count() == 1 {
		t.root = t.root.children[0]
		t.height--
	}
	if !t.root.leaf && t.root.count() == 0 {
		t.root = newNode(true, 0)
		t.height = 1
	}
	for _, e := range orphans {
		t.insertAtLevel(e, 1)
	}
	return nil
}

// findLeaf locates the leaf and slot holding item.
func (t *Tree) findLeaf(n *node, item Item) (*node, int) {
	if n.leaf {
		for i, id := range n.ids {
			if id == item.ID {
				return n, i
			}
		}
		return nil, 0
	}
	for i := 0; i < n.count(); i++ {
		if n.rect(i).Intersects(item.MBR) {
			if leaf, k := t.findLeaf(n.children[i], item); leaf != nil {
				return leaf, k
			}
		}
	}
	return nil, 0
}

// condense removes underflowing descendants of n, collecting their data
// entries into orphans, and tightens MBRs bottom-up.
func (t *Tree) condense(n *node, level int, orphans *[]entry) {
	if n.leaf {
		return
	}
	kept := 0
	for i := 0; i < n.count(); i++ {
		c := n.children[i]
		t.condense(c, level-1, orphans)
		// Non-root nodes must hold at least minEntries; dissolve any
		// child that underflows and reinsert its data entries.
		if c.count() < t.minEntries {
			collectItems(c, orphans)
			continue
		}
		n.children[kept] = c
		n.setRect(kept, c.mbr())
		kept++
	}
	n.truncate(kept)
}

// collectItems gathers all data entries under n.
func collectItems(n *node, out *[]entry) {
	if n.leaf {
		*out = n.appendEntries(*out)
		return
	}
	for _, c := range n.children {
		collectItems(c, out)
	}
}

// Search calls fn for every item whose MBR intersects q, stopping early
// if fn returns false.
func (t *Tree) Search(q geom.MBR, fn func(Item) bool) {
	t.SearchCounted(q, fn)
}

// SearchCounted is Search returning the number of index nodes visited —
// the "buffer gets" a disk-resident execution of the probe would issue.
// The nested-loop join baseline reports this to expose its repeated
// index descents.
func (t *Tree) SearchCounted(q geom.MBR, fn func(Item) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	visited := 0
	searchNode(t.root, q, fn, &visited)
	return visited
}

func searchNode(n *node, q geom.MBR, fn func(Item) bool, visited *int) bool {
	*visited++
	xlo, ylo, xhi, yhi := n.xlo, n.ylo, n.xhi, n.yhi
	if n.leaf {
		for i := range xlo {
			if xlo[i] > q.MaxX || q.MinX > xhi[i] || ylo[i] > q.MaxY || q.MinY > yhi[i] {
				continue
			}
			it := Item{
				MBR: geom.MBR{MinX: xlo[i], MinY: ylo[i], MaxX: xhi[i], MaxY: yhi[i]},
				ID:  n.ids[i],
			}
			if !fn(it) {
				return false
			}
		}
		return true
	}
	for i := range xlo {
		if xlo[i] > q.MaxX || q.MinX > xhi[i] || ylo[i] > q.MaxY || q.MinY > yhi[i] {
			continue
		}
		if !searchNode(n.children[i], q, fn, visited) {
			return false
		}
	}
	return true
}

// SearchWithinDist calls fn for every item whose MBR lies within
// distance d of q — the primary filter for within-distance queries.
func (t *Tree) SearchWithinDist(q geom.MBR, d float64, fn func(Item) bool) {
	t.SearchWithinDistCounted(q, d, fn)
}

// SearchWithinDistCounted is SearchWithinDist returning the number of
// index nodes visited.
func (t *Tree) SearchWithinDistCounted(q geom.MBR, d float64, fn func(Item) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	visited := 0
	searchDistNode(t.root, q, d, fn, &visited)
	return visited
}

func searchDistNode(n *node, q geom.MBR, d float64, fn func(Item) bool, visited *int) bool {
	*visited++
	for i := 0; i < n.count(); i++ {
		m := n.rect(i)
		if m.Dist(q) > d {
			continue
		}
		if n.leaf {
			if !fn(Item{MBR: m, ID: n.ids[i]}) {
				return false
			}
		} else if !searchDistNode(n.children[i], q, d, fn, visited) {
			return false
		}
	}
	return true
}

// Items returns every indexed item (in unspecified order).
func (t *Tree) Items() []Item {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Item, 0, t.size)
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			for i := 0; i < n.count(); i++ {
				out = append(out, Item{MBR: n.rect(i), ID: n.ids[i]})
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// Stats describes the tree shape for the index metadata report.
type Stats struct {
	Items      int
	Height     int
	Nodes      int
	Leaves     int
	AvgFanout  float64
	MaxEntries int
}

// Stats returns shape statistics.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{Items: t.size, Height: t.height, MaxEntries: t.maxEntries}
	total := 0
	var walk func(n *node)
	walk = func(n *node) {
		s.Nodes++
		total += n.count()
		if n.leaf {
			s.Leaves++
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	if s.Nodes > 0 {
		s.AvgFanout = float64(total) / float64(s.Nodes)
	}
	return s
}

// Validate checks the structural invariants: every node MBR equals the
// union of its entries, leaves all at the same depth, occupancy bounds
// on non-root nodes, parallel-slice consistency of the SoA layout, and
// the item count. Tests run it after mutation storms and after parallel
// builds.
func (t *Tree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	count := 0
	if err := t.validateNode(t.root, t.height, true, &count); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d items reachable", t.size, count)
	}
	return nil
}

func (t *Tree) validateNode(n *node, level int, isRoot bool, count *int) error {
	if n.leaf != (level == 1) {
		return fmt.Errorf("rtree: leaf flag %v at level %d", n.leaf, level)
	}
	c := n.count()
	if len(n.ylo) != c || len(n.xhi) != c || len(n.yhi) != c {
		return fmt.Errorf("rtree: ragged coordinate slices at level %d", level)
	}
	if n.leaf {
		if len(n.ids) != c || len(n.children) != 0 {
			return fmt.Errorf("rtree: ragged leaf slices at level %d", level)
		}
	} else if len(n.children) != c || len(n.ids) != 0 {
		return fmt.Errorf("rtree: ragged internal slices at level %d", level)
	}
	if !isRoot && c < t.minEntries {
		return fmt.Errorf("rtree: node at level %d underflows with %d entries", level, c)
	}
	if c > t.maxEntries {
		return fmt.Errorf("rtree: node at level %d overflows with %d entries", level, c)
	}
	if n.leaf {
		*count += c
		return nil
	}
	for i := 0; i < c; i++ {
		got := n.children[i].mbr()
		if got != n.rect(i) {
			return fmt.Errorf("rtree: stale MBR at level %d: stored %v, actual %v", level, n.rect(i), got)
		}
		if err := t.validateNode(n.children[i], level-1, false, count); err != nil {
			return err
		}
	}
	return nil
}
