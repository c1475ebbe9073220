package rtree

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"

	"spatialtf/internal/geom"
)

func TestNearestFuncOrderedByDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	items := randomItems(rng, 2000, 1000)
	tr := BulkLoad(append([]Item(nil), items...), 16)
	q := geom.MBR{MinX: 500, MinY: 500, MaxX: 500, MaxY: 500}
	prev := -1.0
	n := 0
	tr.NearestFunc(q, func(it Item, lower float64) bool {
		if lower < prev {
			t.Fatalf("distances out of order: %g after %g", lower, prev)
		}
		if got := it.MBR.Dist(q); got != lower {
			t.Fatalf("reported lower bound %g != item MBR distance %g", lower, got)
		}
		prev = lower
		n++
		return true
	})
	if n != len(items) {
		t.Fatalf("surfaced %d of %d items", n, len(items))
	}
}

func TestNearestKAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	items := randomItems(rng, 1500, 1000)
	tr := BulkLoad(append([]Item(nil), items...), 16)
	for trial := 0; trial < 20; trial++ {
		x := rng.Float64() * 1000
		y := rng.Float64() * 1000
		q := geom.MBR{MinX: x, MinY: y, MaxX: x, MaxY: y}
		k := 1 + rng.Intn(20)
		got := tr.NearestK(q, k)
		if len(got) != k {
			t.Fatalf("trial %d: NearestK returned %d", trial, len(got))
		}
		// Brute-force k-th smallest MBR distance.
		dists := make([]float64, len(items))
		for i, it := range items {
			dists[i] = it.MBR.Dist(q)
		}
		sort.Float64s(dists)
		for i, it := range got {
			d := it.MBR.Dist(q)
			// Each returned distance must equal the i-th smallest
			// (allowing ties to swap items, distances must match).
			if d != dists[i] {
				t.Fatalf("trial %d: result %d at distance %g, want %g", trial, i, d, dists[i])
			}
		}
	}
}

func TestNearestEdgeCases(t *testing.T) {
	tr := New(8)
	if got := tr.NearestK(geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 5); len(got) != 0 {
		t.Errorf("empty tree NearestK = %v", got)
	}
	tr.Insert(Item{MBR: geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, ID: rid(0)})
	if got := tr.NearestK(geom.MBR{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, 0); got != nil {
		t.Errorf("k=0 NearestK = %v", got)
	}
	got := tr.NearestK(geom.MBR{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, 10)
	if len(got) != 1 {
		t.Errorf("k>size NearestK = %d items", len(got))
	}
	// Early stop.
	rng := rand.New(rand.NewSource(419))
	for _, it := range randomItems(rng, 100, 50) {
		tr.Insert(it)
	}
	n := 0
	tr.NearestFunc(geom.MBR{MinX: 25, MinY: 25, MaxX: 25, MaxY: 25}, func(Item, float64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

// heapQueue drives nnQueue through container/heap: the oracle the
// typed push and pop must match step for step.
type heapQueue struct{ nnQueue }

func (q heapQueue) Len() int           { return len(q.nnQueue) }
func (q heapQueue) Less(i, j int) bool { return q.nnQueue[i].dist < q.nnQueue[j].dist }
func (q heapQueue) Swap(i, j int)      { q.nnQueue[i], q.nnQueue[j] = q.nnQueue[j], q.nnQueue[i] }
func (q *heapQueue) Push(x any)        { q.nnQueue = append(q.nnQueue, x.(nnEntry)) }
func (q *heapQueue) Pop() any {
	n := len(q.nnQueue) - 1
	e := q.nnQueue[n]
	q.nnQueue = q.nnQueue[:n]
	return e
}

// nearestByContainerHeap is NearestFunc's best-first walk on
// container/heap, kept as the oracle for the typed queue.
func nearestByContainerHeap(t *Tree, q geom.MBR, fn func(Item, float64)) {
	if t.size == 0 {
		return
	}
	pq := &heapQueue{nnQueue{{dist: t.root.mbr().Dist(q), node: t.root}}}
	for pq.Len() > 0 {
		e := heap.Pop(pq).(nnEntry)
		if e.node == nil {
			fn(e.item, e.dist)
			continue
		}
		n := e.node
		for i := 0; i < n.count(); i++ {
			m := n.rect(i)
			if n.leaf {
				heap.Push(pq, nnEntry{dist: m.Dist(q), item: Item{MBR: m, ID: n.ids[i]}})
			} else {
				heap.Push(pq, nnEntry{dist: m.Dist(q), node: n.children[i]})
			}
		}
	}
}

// TestNearestMatchesContainerHeap compares the whole (item, bound)
// sequence against the container/heap walk, over seeded trees full of
// exact ties: items repeat their MBRs and queries sit inside shared
// rectangles, so equal distances are common and only identical
// comparisons and swaps keep the tie order (and sdo_nn's answers).
func TestNearestMatchesContainerHeap(t *testing.T) {
	type step struct {
		it    Item
		bound float64
	}
	rng := rand.New(rand.NewSource(421))
	for trial := 0; trial < 12; trial++ {
		items := randomItems(rng, 200+rng.Intn(1500), 1000)
		for i := range items {
			if i%3 != 0 {
				items[i].MBR = items[rng.Intn(i/3+1)*3].MBR
			}
		}
		var tr *Tree
		if trial%2 == 0 {
			tr = BulkLoad(append([]Item(nil), items...), 4+rng.Intn(29))
		} else {
			tr = New(4 + rng.Intn(29))
			for _, it := range items {
				tr.Insert(it)
			}
		}
		for k := 0; k < 8; k++ {
			c := items[rng.Intn(len(items))].MBR.Center()
			if k%2 == 1 {
				c = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			}
			q := geom.MBR{MinX: c.X, MinY: c.Y, MaxX: c.X, MaxY: c.Y}
			var want, got []step
			nearestByContainerHeap(tr, q, func(it Item, d float64) { want = append(want, step{it, d}) })
			tr.NearestFunc(q, func(it Item, d float64) bool {
				got = append(got, step{it, d})
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d: %d items, oracle %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d query %d: step %d is %v, oracle %v", trial, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNearestAllocFloor pins a 10-item search over 25 000 rectangles
// at two allocations: the queue and one growth of it, not one per
// entry pushed (container/heap's interface boxing made 208).
func TestNearestAllocFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(433))
	tr := BulkLoad(randomItems(rng, 25000, 1000), 0)
	q := geom.MBR{MinX: 500, MinY: 500, MaxX: 500, MaxY: 500}
	n := 0
	fn := func(Item, float64) bool { n++; return n < 10 }
	allocs := testing.AllocsPerRun(20, func() {
		n = 0
		tr.NearestFunc(q, fn)
	})
	t.Logf("%.0f allocations a 10-item search", allocs)
	if allocs > 2 {
		t.Errorf("%.0f allocations a 10-item search, floor 2", allocs)
	}
}
