package sjoin

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"spatialtf/internal/datagen"
)

func TestParseAlgo(t *testing.T) {
	cases := map[string]Algo{
		"":        AlgoAuto,
		"auto":    AlgoAuto,
		"nested":  AlgoNested,
		"subtree": AlgoSubtree,
		"grid":    AlgoGrid,
	}
	for s, want := range cases {
		got, err := ParseAlgo(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgo(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	// "rtree" was once an undocumented alias the SQL hint never accepted.
	for _, s := range []string{"bogus", "rtree", "GRID"} {
		if _, err := ParseAlgo(s); err == nil {
			t.Errorf("ParseAlgo(%q): want error", s)
		}
	}
	for _, a := range []Algo{AlgoAuto, AlgoNested, AlgoSubtree, AlgoGrid} {
		back, err := ParseAlgo(a.String())
		if err != nil || back != a {
			t.Errorf("round trip %v -> %q -> %v, %v", a, a.String(), back, err)
		}
	}
}

func TestChoosePlan(t *testing.T) {
	cfg := DefaultConfig()
	big := buildSource(t, "big", datagen.Counties(2000, 61))
	tiny := buildSource(t, "tiny", datagen.Counties(20, 62))

	pc := ChoosePlan(tiny, tiny, cfg, 8)
	if pc.Algo != AlgoNested {
		t.Errorf("tiny input chose %v (%s), want nested", pc.Algo, pc.Reason)
	}
	pc = ChoosePlan(big, big, cfg, 1)
	if pc.Algo != AlgoSubtree || pc.Workers != 1 {
		t.Errorf("single worker chose %v/%d (%s), want subtree/1", pc.Algo, pc.Workers, pc.Reason)
	}
	pc = ChoosePlan(big, big, cfg, 8)
	if pc.Algo != AlgoGrid || pc.Workers != 8 {
		t.Errorf("8 workers on uniform data chose %v/%d (%s), want grid/8", pc.Algo, pc.Workers, pc.Reason)
	}
	if pc.Replication <= 0 {
		t.Errorf("grid choice reported no replication estimate: %+v", pc)
	}
	if pc.Reason == "" {
		t.Errorf("empty reason")
	}
	// Non-positive workers resolve to GOMAXPROCS.
	pc = ChoosePlan(big, big, cfg, 0)
	if pc.Workers < 1 {
		t.Errorf("workers = %d, want >= 1", pc.Workers)
	}
}

// TestChoosePlanDenseExtents: rectangles spanning most of the space
// replicate into nearly every tile, so the model must fall back to the
// subtree path.
func TestChoosePlanDenseExtents(t *testing.T) {
	ds := datagen.Counties(1500, 63)
	// Inflate every geometry's extent by replacing the dataset with
	// block groups whose sizes are huge relative to cells: use a
	// distance join to force the expansion instead — the same effect
	// (first side widened by d on every edge) through a public knob.
	src := buildSource(t, "d", ds)
	cfg := DefaultConfig()
	cfg.Distance = 400 // world is 1000x1000; cells are far smaller
	pc := ChoosePlan(src, src, cfg, 8)
	if pc.Algo != AlgoSubtree {
		t.Errorf("dense extents chose %v (repl %.1f, %s), want subtree", pc.Algo, pc.Replication, pc.Reason)
	}
}

func TestNormWorkers(t *testing.T) {
	if got := normWorkers(4); got != 4 {
		t.Errorf("normWorkers(4) = %d", got)
	}
	if got := normWorkers(0); got < 1 {
		t.Errorf("normWorkers(0) = %d, want GOMAXPROCS >= 1", got)
	}
	if got := normWorkers(-3); got < 1 {
		t.Errorf("normWorkers(-3) = %d", got)
	}
}

// TestSubtreePairsForWorkersIncremental pins the incremental descent to
// the reference semantics: the smallest level whose pruned cross
// product reaches workers*4 tasks, identical pair list in order.
func TestSubtreePairsForWorkersIncremental(t *testing.T) {
	a := buildSource(t, "a", datagen.Counties(900, 64))
	b := buildSource(t, "b", datagen.Counties(700, 65))
	cfg := DefaultConfig()
	for _, workers := range []int{1, 2, 4, 8, 32} {
		got := SubtreePairsForWorkers(a.Tree, b.Tree, workers, cfg)
		// Reference: re-enumerate from scratch per level.
		want := func() []PairOfRoots {
			maxD := min(a.Tree.Height(), b.Tree.Height()) - 1
			for d := 0; ; d++ {
				pairs := SubtreePairs(a.Tree, b.Tree, d, cfg)
				if len(pairs) >= workers*4 || d >= maxD {
					return pairs
				}
			}
		}()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pair %d differs", workers, i)
			}
		}
	}
}

// TestClaimQueueLongestFirst checks the subtree-pair claim queue: it
// holds every pair, in non-increasing cost, and 4 concurrent claimers
// take each pair exactly once.
func TestClaimQueueLongestFirst(t *testing.T) {
	a := buildSource(t, "a", datagen.BlockGroups(1200, 66))
	pairs := SubtreePairsForWorkers(a.Tree, a.Tree, 4, DefaultConfig())
	if len(pairs) < 8 {
		t.Skipf("only %d pairs", len(pairs))
	}
	q := newPairQueue(slices.Clone(pairs))
	if len(q.pairs) != len(pairs) {
		t.Fatalf("queue holds %d of %d pairs", len(q.pairs), len(pairs))
	}
	for i := 1; i < len(q.pairs); i++ {
		if pairCost(q.pairs[i]) > pairCost(q.pairs[i-1]) {
			t.Fatalf("pair %d costs %.0f, more than pair %d's %.0f", i, pairCost(q.pairs[i]), i-1, pairCost(q.pairs[i-1]))
		}
	}
	claims := make([]atomic.Int32, len(q.pairs))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := claimNext(&q.next, len(q.pairs)); k >= 0; k = claimNext(&q.next, len(q.pairs)) {
				claims[k].Add(1)
			}
		}()
	}
	wg.Wait()
	for k := range claims {
		if n := claims[k].Load(); n != 1 {
			t.Fatalf("pair %d claimed %d times", k, n)
		}
	}
}
