package rtree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// rid fabricates a distinct rowid from an integer.
func rid(i int) storage.RowID {
	return storage.RowID{Page: uint32(i/1000 + 1), Slot: uint16(i % 1000)}
}

// randomItems generates n random small rectangles in [0, span)^2.
func randomItems(rng *rand.Rand, n int, span float64) []Item {
	items := make([]Item, n)
	for i := range items {
		x := rng.Float64() * span
		y := rng.Float64() * span
		w := rng.Float64()*span/100 + 0.01
		h := rng.Float64()*span/100 + 0.01
		items[i] = Item{MBR: geom.MBR{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: rid(i)}
	}
	return items
}

// linearSearch is the oracle: filter all items by MBR intersection.
func linearSearch(items []Item, q geom.MBR) map[storage.RowID]bool {
	out := map[storage.RowID]bool{}
	for _, it := range items {
		if it.MBR.Intersects(q) {
			out[it.ID] = true
		}
	}
	return out
}

func collectSearch(t *Tree, q geom.MBR) map[storage.RowID]bool {
	out := map[storage.RowID]bool{}
	t.Search(q, func(it Item) bool {
		out[it.ID] = true
		return true
	})
	return out
}

func sameIDSet(a, b map[storage.RowID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestInsertAndSearchSmall(t *testing.T) {
	tr := New(4)
	items := []Item{
		{MBR: geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, ID: rid(0)},
		{MBR: geom.MBR{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}, ID: rid(1)},
		{MBR: geom.MBR{MinX: 0.5, MinY: 0.5, MaxX: 2, MaxY: 2}, ID: rid(2)},
	}
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	got := collectSearch(tr, geom.MBR{MinX: 0, MinY: 0, MaxX: 1.5, MaxY: 1.5})
	if !sameIDSet(got, map[storage.RowID]bool{rid(0): true, rid(2): true}) {
		t.Errorf("Search = %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRejectsInvalidMBR(t *testing.T) {
	tr := New(0)
	if err := tr.Insert(Item{MBR: geom.EmptyMBR(), ID: rid(0)}); err == nil {
		t.Errorf("empty MBR insert: want error")
	}
}

func TestSearchEqualsLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	items := randomItems(rng, 3000, 1000)
	tr := New(16)
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for trial := 0; trial < 50; trial++ {
		x := rng.Float64() * 900
		y := rng.Float64() * 900
		q := geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*100, MaxY: y + rng.Float64()*100}
		want := linearSearch(items, q)
		got := collectSearch(tr, q)
		if !sameIDSet(got, want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tr := New(8)
	for _, it := range randomItems(rng, 500, 100) {
		tr.Insert(it)
	}
	n := 0
	tr.Search(geom.MBR{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, func(Item) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestSearchWithinDist(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	items := randomItems(rng, 2000, 1000)
	tr := BulkLoad(append([]Item(nil), items...), 16)
	q := geom.MBR{MinX: 500, MinY: 500, MaxX: 510, MaxY: 510}
	for _, d := range []float64{0, 5, 50, 500} {
		want := map[storage.RowID]bool{}
		for _, it := range items {
			if it.MBR.Dist(q) <= d {
				want[it.ID] = true
			}
		}
		got := map[storage.RowID]bool{}
		tr.SearchWithinDist(q, d, func(it Item) bool {
			got[it.ID] = true
			return true
		})
		if !sameIDSet(got, want) {
			t.Fatalf("d=%g: got %d, want %d", d, len(got), len(want))
		}
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	items := randomItems(rng, 1000, 500)
	tr := New(8)
	for _, it := range items {
		tr.Insert(it)
	}
	// Delete a random half.
	perm := rng.Perm(len(items))
	deleted := map[storage.RowID]bool{}
	for _, i := range perm[:500] {
		if err := tr.Delete(items[i]); err != nil {
			t.Fatalf("Delete(%v): %v", items[i].ID, err)
		}
		deleted[items[i].ID] = true
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Remaining items all findable; deleted ones gone.
	got := collectSearch(tr, geom.MBR{MinX: 0, MinY: 0, MaxX: 500, MaxY: 500})
	for _, it := range items {
		if deleted[it.ID] && got[it.ID] {
			t.Errorf("deleted item %v still found", it.ID)
		}
		if !deleted[it.ID] && !got[it.ID] {
			t.Errorf("surviving item %v lost", it.ID)
		}
	}
	// Delete of a missing item errors.
	if err := tr.Delete(items[perm[0]]); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	items := randomItems(rng, 300, 100)
	tr := New(6)
	for _, it := range items {
		tr.Insert(it)
	}
	for _, it := range items {
		if err := tr.Delete(it); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("after delete-all: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tree remains usable.
	tr.Insert(items[0])
	if got := collectSearch(tr, items[0].MBR); len(got) != 1 {
		t.Errorf("reuse after delete-all failed")
	}
}

func TestBulkLoadEqualsDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{0, 1, 5, 33, 500, 4000} {
		items := randomItems(rng, n, 1000)
		packed := BulkLoad(append([]Item(nil), items...), 16)
		if err := packed.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if packed.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, packed.Len())
		}
		dyn := New(16)
		for _, it := range items {
			dyn.Insert(it)
		}
		for trial := 0; trial < 20; trial++ {
			x := rng.Float64() * 900
			y := rng.Float64() * 900
			q := geom.MBR{MinX: x, MinY: y, MaxX: x + 100, MaxY: y + 100}
			if !sameIDSet(collectSearch(packed, q), collectSearch(dyn, q)) {
				t.Fatalf("n=%d trial %d: packed and dynamic disagree", n, trial)
			}
		}
	}
}

func TestBulkLoadIsShallower(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	items := randomItems(rng, 10000, 1000)
	packed := BulkLoad(append([]Item(nil), items...), 32)
	dyn := New(32)
	for _, it := range items {
		dyn.Insert(it)
	}
	if packed.Height() > dyn.Height() {
		t.Errorf("packed height %d > dynamic height %d", packed.Height(), dyn.Height())
	}
	ps, ds := packed.Stats(), dyn.Stats()
	if ps.AvgFanout < ds.AvgFanout {
		t.Errorf("packed fanout %.1f < dynamic %.1f", ps.AvgFanout, ds.AvgFanout)
	}
}

func TestParallelBulkLoadEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	items := randomItems(rng, 20000, 1000)
	serial := BulkLoad(append([]Item(nil), items...), 32)
	for _, w := range []int{1, 2, 3, 4, 8} {
		par := ParallelBulkLoad(append([]Item(nil), items...), 32, w)
		if err := par.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if par.Len() != serial.Len() {
			t.Fatalf("workers=%d: Len %d vs %d", w, par.Len(), serial.Len())
		}
		for trial := 0; trial < 25; trial++ {
			x := rng.Float64() * 900
			y := rng.Float64() * 900
			q := geom.MBR{MinX: x, MinY: y, MaxX: x + 50, MaxY: y + 50}
			if !sameIDSet(collectSearch(par, q), collectSearch(serial, q)) {
				t.Fatalf("workers=%d trial %d: results differ", w, trial)
			}
		}
	}
}

// TestParallelBulkLoadSmallInput: an input too small to partition
// takes the sequential path, and an empty one yields an empty tree.
func TestParallelBulkLoadSmallInput(t *testing.T) {
	one := []Item{{MBR: geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, ID: rid(0)}}
	tiny := ParallelBulkLoad(one, 8, 4)
	if err := tiny.Validate(); err != nil || tiny.Len() != 1 {
		t.Fatalf("tiny build: len=%d, validate: %v", tiny.Len(), err)
	}
	if got := collectSearch(tiny, one[0].MBR); !got[rid(0)] {
		t.Fatalf("tiny build does not find its one item")
	}
	empty := ParallelBulkLoad(nil, 8, 4)
	if err := empty.Validate(); err != nil || empty.Len() != 0 {
		t.Fatalf("empty build: len=%d, validate: %v", empty.Len(), err)
	}
}

func TestItemsReturnsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	items := randomItems(rng, 1234, 300)
	tr := BulkLoad(append([]Item(nil), items...), 16)
	got := tr.Items()
	if len(got) != len(items) {
		t.Fatalf("Items returned %d, want %d", len(got), len(items))
	}
	ids := map[storage.RowID]bool{}
	for _, it := range got {
		ids[it.ID] = true
	}
	for _, it := range items {
		if !ids[it.ID] {
			t.Errorf("item %v missing from Items()", it.ID)
		}
	}
}

func TestStatsAndBounds(t *testing.T) {
	tr := New(8)
	s := tr.Stats()
	if s.Items != 0 || s.Height != 1 || s.Nodes != 1 {
		t.Errorf("empty stats = %+v", s)
	}
	if !tr.Bounds().IsEmpty() {
		t.Errorf("empty tree Bounds = %v", tr.Bounds())
	}
	rng := rand.New(rand.NewSource(79))
	for _, it := range randomItems(rng, 2000, 100) {
		tr.Insert(it)
	}
	s = tr.Stats()
	if s.Items != 2000 || s.Height < 3 || s.Leaves < 2000/9 {
		t.Errorf("stats = %+v", s)
	}
	b := tr.Bounds()
	if !(geom.MBR{MinX: 0, MinY: 0, MaxX: 102, MaxY: 102}).Contains(b) {
		t.Errorf("Bounds = %v", b)
	}
}

func TestSubtreeRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	items := randomItems(rng, 5000, 1000)
	tr := BulkLoad(items, 16)
	h := tr.Height()
	if h < 3 {
		t.Fatalf("tree too shallow for the test: height %d", h)
	}
	// Descend 0 = root itself.
	roots := tr.SubtreeRoots(0)
	if len(roots) != 1 || roots[0].Level() != h {
		t.Fatalf("SubtreeRoots(0) = %v", roots)
	}
	prevCount := 1
	for d := 1; d < h; d++ {
		roots = tr.SubtreeRoots(d)
		if len(roots) < prevCount {
			t.Errorf("descend %d: %d roots, fewer than previous %d", d, len(roots), prevCount)
		}
		prevCount = len(roots)
		// Every root at the right level, and together they cover all items.
		total := 0
		for _, r := range roots {
			if r.Level() != h-d {
				t.Fatalf("descend %d: root at level %d", d, r.Level())
			}
			total += len(r.Items(nil))
		}
		if total != len(items) {
			t.Fatalf("descend %d: subtrees cover %d items, want %d", d, total, len(items))
		}
	}
	// Descending past the leaves is capped.
	deep := tr.SubtreeRoots(99)
	for _, r := range deep {
		if !r.IsLeaf() {
			t.Errorf("over-descend returned non-leaf %v", r)
		}
	}
	if got := New(4).SubtreeRoots(1); got != nil {
		t.Errorf("empty tree SubtreeRoots = %v", got)
	}
}

func TestSubtreeRootsAtLeast(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	tr := BulkLoad(randomItems(rng, 5000, 1000), 16)
	for _, want := range []int{1, 2, 4, 8, 64} {
		roots := tr.SubtreeRootsAtLeast(want)
		if len(roots) < want && len(roots) < tr.Stats().Leaves {
			t.Errorf("AtLeast(%d) = %d roots", want, len(roots))
		}
	}
	// A request beyond the leaf count returns the leaf level.
	leaves := tr.Stats().Leaves
	roots := tr.SubtreeRootsAtLeast(leaves * 10)
	if len(roots) != leaves {
		t.Errorf("AtLeast(huge) = %d roots, want %d leaves", len(roots), leaves)
	}
}

func TestNodeRefAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	items := randomItems(rng, 200, 100)
	tr := BulkLoad(items, 8)
	root := tr.Root()
	if root.IsZero() {
		t.Fatal("zero root")
	}
	if root.Level() != tr.Height() {
		t.Errorf("root level %d, height %d", root.Level(), tr.Height())
	}
	if root.MBR() != tr.Bounds() {
		t.Errorf("root MBR %v != Bounds %v", root.MBR(), tr.Bounds())
	}
	// Walk down to a leaf verifying entry MBR containment.
	n := root
	for !n.IsLeaf() {
		if n.NumEntries() == 0 {
			t.Fatal("empty internal node")
		}
		for i := 0; i < n.NumEntries(); i++ {
			if !n.MBR().Contains(n.EntryMBR(i)) {
				t.Errorf("entry %d MBR not contained in node MBR", i)
			}
		}
		n = n.Child(0)
	}
	for i := 0; i < n.NumEntries(); i++ {
		if !n.EntryID(i).IsValid() {
			t.Errorf("leaf entry %d has invalid rowid", i)
		}
	}
	if (NodeRef{}).IsZero() != true {
		t.Errorf("zero NodeRef not IsZero")
	}
	if s := (NodeRef{}).String(); s != "NodeRef(nil)" {
		t.Errorf("zero String = %q", s)
	}
	if s := root.String(); s == "" {
		t.Errorf("root String empty")
	}
}

// TestInsertSearchProperty: after any interleaving of inserts the tree
// agrees with a linear scan for random windows, and Validate passes.
func TestInsertSearchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		n := rng.Intn(800) + 1
		items := randomItems(rng, n, 200)
		tr := New(4 + rng.Intn(28))
		for _, it := range items {
			tr.Insert(it)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for q := 0; q < 10; q++ {
			x := rng.Float64() * 200
			y := rng.Float64() * 200
			w := geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*50, MaxY: y + rng.Float64()*50}
			if !sameIDSet(collectSearch(tr, w), linearSearch(items, w)) {
				t.Fatalf("trial %d query %d: mismatch", trial, q)
			}
		}
	}
}

// TestMixedInsertDeleteProperty interleaves inserts and deletes and
// checks consistency against a model map.
func TestMixedInsertDeleteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	tr := New(8)
	model := map[storage.RowID]Item{}
	nextID := 0
	for op := 0; op < 3000; op++ {
		if len(model) == 0 || rng.Float64() < 0.6 {
			it := randomItems(rng, 1, 100)[0]
			it.ID = rid(nextID)
			nextID++
			tr.Insert(it)
			model[it.ID] = it
		} else {
			// Delete a random model element.
			var victim Item
			k := rng.Intn(len(model))
			for _, v := range model {
				if k == 0 {
					victim = v
					break
				}
				k--
			}
			if err := tr.Delete(victim); err != nil {
				t.Fatalf("op %d: Delete: %v", op, err)
			}
			delete(model, victim.ID)
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	got := collectSearch(tr, geom.MBR{MinX: -1, MinY: -1, MaxX: 102, MaxY: 102})
	if len(got) != len(model) {
		t.Fatalf("full window found %d, model %d", len(got), len(model))
	}
	for id := range model {
		if !got[id] {
			t.Errorf("model item %v missing", id)
		}
	}
}

func TestGroupSizes(t *testing.T) {
	cases := []struct {
		n, max int
	}{
		{0, 32}, {1, 32}, {32, 32}, {33, 32}, {63, 32}, {64, 32}, {1000, 32}, {7, 4},
	}
	for _, c := range cases {
		sizes := groupSizes(c.n, c.max)
		sum := 0
		for _, s := range sizes {
			sum += s
			if s > c.max {
				t.Errorf("n=%d max=%d: group size %d overflows", c.n, c.max, s)
			}
			if len(sizes) > 1 && s < c.max*2/5 {
				t.Errorf("n=%d max=%d: group size %d underflows", c.n, c.max, s)
			}
		}
		if sum != c.n {
			t.Errorf("n=%d max=%d: sizes sum to %d", c.n, c.max, sum)
		}
		// Sizes must be within 1 of each other.
		if len(sizes) > 0 {
			sorted := append([]int(nil), sizes...)
			sort.Ints(sorted)
			if sorted[len(sorted)-1]-sorted[0] > 1 {
				t.Errorf("n=%d max=%d: uneven sizes %v", c.n, c.max, sizes)
			}
		}
	}
}
