package sjoin

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/rtree"
	"spatialtf/internal/storage"
)

// Failure-injection tests: the join's secondary filter fetches base
// rows by rowid through an index it does not maintain. A row deleted
// since its index entry was read is skipped where it is fetched — read
// committed per fetch, the rule the maintained path relies on while DML
// waits for the join's pin. Any other fetch failure (here an index entry
// naming a rowid the heap never allocated) must surface as an error, not
// a panic or a silent omission. The nested-loop reference fetches on its own and stays
// strict: it reports a deleted row too.

// firstRow returns the rowid of src's first row in storage order.
func firstRow(src Source) storage.RowID {
	var first storage.RowID
	src.Table.Scan(func(id storage.RowID, _ storage.Row) bool {
		first = id
		return false
	})
	return first
}

// corruptIndex adds an entry to src's R-tree over the MBR of its first
// row, naming a rowid the heap never allocated: any join reaching the
// entry fails to fetch it.
func corruptIndex(t *testing.T, src Source) {
	t.Helper()
	col, err := src.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	v, err := src.Table.FetchColumn(firstRow(src), col)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Tree.Insert(rtree.Item{MBR: geom.MBROf(v.G), ID: storage.RowID{Page: 1 << 20}}); err != nil {
		t.Fatal(err)
	}
}

// withoutRow returns the pairs not involving id.
func withoutRow(pairs []Pair, id storage.RowID) []Pair {
	var out []Pair
	for _, p := range pairs {
		if p.A != id && p.B != id {
			out = append(out, p)
		}
	}
	return out
}

func TestIndexJoinSurfacesFetchErrors(t *testing.T) {
	src := buildSource(t, "fragile", datagen.Stars(200, 301))
	corruptIndex(t, src)
	cur, err := IndexJoin(src, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = CollectPairs(cur)
	if !errors.Is(err, storage.ErrBadRowID) {
		t.Fatalf("corrupt-index join: err = %v, want the fetch's ErrBadRowID", err)
	}
	if !strings.Contains(err.Error(), "fetch") {
		t.Errorf("unexpected error text: %v", err)
	}
}

// TestIndexJoinSkipsDeletedRows: a row deleted behind the index's back
// drops out of every pair that fetches it, and the rest of the result
// is untouched. A pair decided from the row's index entry alone — the
// row with itself, or its leaf MBR inside its partner (DESIGN.md §21) —
// never fetches it and is returned from the entry.
func TestIndexJoinSkipsDeletedRows(t *testing.T) {
	src := buildSource(t, "deleted", datagen.Stars(200, 301))
	cfg := DefaultConfig()
	cfg.GeomCacheBytes = -1 // every candidate fetches
	before := collect(t, src, src, cfg)
	victim := firstRow(src)
	if err := src.Table.Delete(victim); err != nil {
		t.Fatal(err)
	}
	want := withoutRow(before, victim)
	check := func(name string, got []Pair) {
		t.Helper()
		if others := withoutRow(got, victim); !pairsEqual(others, want) {
			t.Fatalf("%s: %d pairs not involving the deleted row, want %d", name, len(others), len(want))
		}
		for _, p := range got {
			if !slices.Contains(before, p) {
				t.Fatalf("%s: pair %v is not in the result before the delete", name, p)
			}
		}
		kept := len(got) - len(want)
		if kept < 1 || kept >= len(before)-len(want) || !slices.Contains(got, Pair{A: victim, B: victim}) {
			t.Fatalf("%s: the deleted row is in %d pairs of %d; want its pair with itself, not the fetched ones", name, kept, len(before)-len(want))
		}
	}
	check("serial", collect(t, src, src, cfg))
	cur, err := ParallelIndexJoin(src, src, cfg, 4)
	check("parallel", sortedPairs(t, cur, err))
}

// TestBoxDecidedPairOfDeletedRow: stars joined with counties, some
// stars deleted behind the index's back. A star's pair whose leaf MBR
// lies inside its county is a box hit — the star is never fetched — so
// it is returned from the index entry; every other pair of a deleted
// star fetches the star and drops out. Pairs of live stars are
// untouched.
func TestBoxDecidedPairOfDeletedRow(t *testing.T) {
	stars := buildSource(t, "stars", datagen.Stars(400, 5))
	counties := buildSource(t, "counties", datagen.Counties(400, 5))
	cfg := DefaultConfig()
	cfg.GeomCacheBytes = -1 // every candidate fetches
	before := collect(t, stars, counties, cfg)
	starMBR := heapMBRs(t, stars)
	col, err := counties.geomColumn()
	if err != nil {
		t.Fatal(err)
	}
	deleted := map[storage.RowID]bool{}
	i := 0
	stars.Table.Scan(func(id storage.RowID, _ storage.Row) bool {
		if i%5 == 0 {
			deleted[id] = true
		}
		i++
		return true
	})
	for id := range deleted {
		if err := stars.Table.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var want []Pair
	hits, dropped := 0, 0
	for _, p := range before {
		if deleted[p.A] {
			v, err := counties.Table.FetchColumn(p.B, col)
			if err != nil {
				t.Fatal(err)
			}
			if geom.BoxSide(starMBR[p.A], v.G, 0) != 1 {
				dropped++
				continue
			}
			hits++
		}
		want = append(want, p)
	}
	if hits == 0 || dropped == 0 {
		t.Fatalf("fixture: deleted stars have %d box-decided and %d fetched pairs; want both", hits, dropped)
	}
	if got := collect(t, stars, counties, cfg); !pairsEqual(got, want) {
		t.Fatalf("after the deletes: %d pairs, want %d (%d box-decided pairs of deleted stars)", len(got), len(want), hits)
	}
	cur, err := GridParallelJoin(stars, counties, cfg, 3)
	if got := sortedPairs(t, cur, err); !pairsEqual(got, want) {
		t.Fatalf("grid, after the deletes: %d pairs, want %d", len(got), len(want))
	}
}

func TestNestedLoopSurfacesFetchErrors(t *testing.T) {
	src := buildSource(t, "fragile_nl", datagen.Stars(200, 307))
	// Pick a victim that provably participates in a cross pair, so a
	// surviving outer row will probe its index entry.
	pairs, err := NestedLoop(src, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	victim := storage.InvalidRowID
	for _, p := range pairs {
		if p.A != p.B {
			victim = p.B
			break
		}
	}
	if !victim.IsValid() {
		t.Skip("dataset produced no cross pairs")
	}
	if err := src.Table.Delete(victim); err != nil {
		t.Fatal(err)
	}
	// The deleted row is still in the index; probing it must error.
	if _, err := NestedLoop(src, src, DefaultConfig()); err == nil {
		t.Fatalf("stale-index nested loop did not surface the fetch error")
	}
}

func TestParallelJoinSurfacesFetchErrors(t *testing.T) {
	src := buildSource(t, "fragile_par", datagen.Stars(500, 311))
	corruptIndex(t, src)
	cur, err := ParallelIndexJoin(src, src, DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectPairs(cur); !errors.Is(err, storage.ErrBadRowID) {
		t.Fatalf("corrupt-index parallel join: err = %v, want the fetch's ErrBadRowID", err)
	}
}

func TestJoinRejectsBadColumn(t *testing.T) {
	src := buildSource(t, "cols", datagen.Stars(10, 313))
	bad := src
	bad.Column = "name" // exists but is not a geometry column
	if _, err := IndexJoin(bad, src, DefaultConfig()); err == nil {
		t.Errorf("non-geometry column accepted")
	}
	bad.Column = "missing"
	if _, err := IndexJoin(bad, src, DefaultConfig()); err == nil {
		t.Errorf("missing column accepted")
	}
	if _, err := ParallelIndexJoin(bad, src, DefaultConfig(), 2); err == nil {
		t.Errorf("parallel join accepted bad column")
	}
	if _, err := NestedLoop(bad, src, DefaultConfig()); err == nil {
		t.Errorf("nested loop accepted bad column")
	}
	if _, _, err := NestedLoopStats(src, bad, DefaultConfig()); err == nil {
		t.Errorf("nested loop accepted bad inner column")
	}
}

func TestJoinFunctionLifecycleReuse(t *testing.T) {
	// Start resets the traversal from the configured roots, so a join
	// function can be re-run; both runs must agree.
	src := buildSource(t, "reuse", datagen.Stars(300, 317))
	fn, err := NewJoinFunction(src, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n1, _, err := RunJoinFunction(fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	n2, _, err := RunJoinFunction(fn, 128)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 || n1 != n2 {
		t.Fatalf("re-run mismatch: %d vs %d", n1, n2)
	}
}

// TestNestedSelfJoinBesideDeleterEnds runs the nested-loop self-join
// while another goroutine deletes rows. The outer table's read must not
// hold the heap lock across the inner fetches: a writer queued between
// the two read locks of one heap would deadlock them. Each run ends,
// with its pairs or with the fetch error of an index entry whose row
// is gone (the source's index has no DML hook).
func TestNestedSelfJoinBesideDeleterEnds(t *testing.T) {
	src := buildSource(t, "nl_deleter", datagen.Stars(400, 313))
	var ids []storage.RowID
	if err := src.Table.Scan(func(id storage.RowID, _ storage.Row) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.GeomCacheBytes = -1
	deleted := make(chan struct{})
	go func() {
		defer close(deleted)
		for _, id := range ids {
			if err := src.Table.Delete(id); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		for {
			// Its pairs and its error are both allowed: the test is
			// that it returns.
			_, _ = NestedLoop(src, src, cfg)
			select {
			case <-deleted:
				return
			default:
			}
		}
	}()
	select {
	case <-ended:
	case <-time.After(30 * time.Second):
		t.Fatal("the nested-loop self-join hung beside a deleter")
	}
}
