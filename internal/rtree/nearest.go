package rtree

import (
	"container/heap"

	"spatialtf/internal/geom"
)

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

type nnQueue []nnEntry

func (q nnQueue) Len() int           { return len(q) }
func (q nnQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q nnQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nnQueue) Push(x any)        { *q = append(*q, x.(nnEntry)) }
func (q *nnQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
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
	pq := &nnQueue{{dist: t.root.mbr().Dist(q), node: t.root}}
	for pq.Len() > 0 {
		e := heap.Pop(pq).(nnEntry)
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
				heap.Push(pq, nnEntry{dist: d, item: Item{MBR: m, ID: n.ids[i]}})
			} else {
				heap.Push(pq, nnEntry{dist: d, node: n.children[i]})
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
