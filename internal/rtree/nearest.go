package rtree

import "spatialtf/internal/geom"

// Incremental nearest-neighbour traversal (Hjaltason & Samet, "Ranking
// in spatial databases", cited as [9] by the paper): a best-first walk
// over the tree using a priority queue ordered by MBR distance to the
// query. Items surface in non-decreasing order of their MBR distance —
// a lower bound on the exact geometry distance, which the operator
// layer (extidx.Nearest) refines with exact distances.

// nnEntry is one priority-queue element: either a node to expand or a
// data item to emit.
type nnEntry struct {
	dist float64
	node *node
	item Item
}

// nnQueue is a binary min-heap on dist. push and pop make exactly the
// comparisons and swaps container/heap's Push and Pop make, so entries
// at equal distance surface in the same order, but on the concrete
// type: no entry is boxed into an interface on its way in.
type nnQueue []nnEntry

func (q *nnQueue) push(e nnEntry) {
	*q = append(*q, e)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *nnQueue) pop() nnEntry {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	*q = h[:n]
	return e
}

// NearestFunc calls fn for each indexed item in non-decreasing order of
// MBR distance to q, together with that distance (a lower bound on the
// exact distance). Iteration stops when fn returns false. The traversal
// is incremental: it expands only the nodes needed to surface the items
// actually consumed.
func (t *Tree) NearestFunc(q geom.MBR, fn func(it Item, lowerBound float64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.size == 0 {
		return
	}
	// Room for a few expanded nodes up front; deeper walks grow it.
	pq := make(nnQueue, 1, 4*t.maxEntries)
	pq[0] = nnEntry{dist: t.root.mbr().Dist(q), node: t.root}
	for len(pq) > 0 {
		e := pq.pop()
		if e.node == nil {
			if !fn(e.item, e.dist) {
				return
			}
			continue
		}
		n := e.node
		for i := 0; i < n.count(); i++ {
			m := n.rect(i)
			d := m.Dist(q)
			if n.leaf {
				pq.push(nnEntry{dist: d, item: Item{MBR: m, ID: n.ids[i]}})
			} else {
				pq.push(nnEntry{dist: d, node: n.children[i]})
			}
		}
	}
}

// NearestK returns up to k items by MBR distance from q, in order. It
// is the pure primary-filter form; use extidx.Nearest for exact-geometry
// ranking.
func (t *Tree) NearestK(q geom.MBR, k int) []Item {
	if k <= 0 {
		return nil
	}
	out := make([]Item, 0, k)
	t.NearestFunc(q, func(it Item, _ float64) bool {
		out = append(out, it)
		return len(out) < k
	})
	return out
}
