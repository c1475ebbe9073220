package sjoin

import (
	"strings"
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/storage"
)

// Failure-injection tests: the join's secondary filter fetches base
// rows by rowid; rows deleted between index creation and the fetch (a
// stale index — impossible through the maintained extidx path, possible
// when driving sjoin directly) must surface as errors, not panics or
// silent omissions.

func TestIndexJoinSurfacesFetchErrors(t *testing.T) {
	src := buildSource(t, "fragile", datagen.Stars(200, 301))
	// Delete a row from the table without maintaining the index.
	var victim storage.RowID
	src.Table.Scan(func(id storage.RowID, _ storage.Row) bool {
		victim = id
		return false
	})
	if err := src.Table.Delete(victim); err != nil {
		t.Fatal(err)
	}
	cur, err := IndexJoin(src, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = CollectPairs(cur)
	if err == nil {
		t.Fatalf("stale-index join did not surface the fetch error")
	}
	if !strings.Contains(err.Error(), "fetch") {
		t.Errorf("unexpected error text: %v", err)
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
	var victim storage.RowID
	src.Table.Scan(func(id storage.RowID, _ storage.Row) bool {
		victim = id
		return false
	})
	if err := src.Table.Delete(victim); err != nil {
		t.Fatal(err)
	}
	cur, err := ParallelIndexJoin(src, src, DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectPairs(cur); err == nil {
		t.Fatalf("stale-index parallel join did not surface the fetch error")
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
