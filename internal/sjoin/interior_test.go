package sjoin

import (
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
)

// buildInteriorSource loads ds and creates its R-tree with interior
// approximations.
func buildInteriorSource(t testing.TB, name string, ds datagen.Dataset) Source {
	t.Helper()
	tab, _, err := datagen.LoadTable(name, ds)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := idxbuild.CreateRtreeOpts(tab, "geom", idxbuild.RtreeOptions{
		Workers:        1,
		InteriorEffort: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Source{Table: tab, Column: "geom", Tree: tree}
}

func TestInteriorJoinMatchesPlainJoin(t *testing.T) {
	ds := datagen.Stars(800, 211)
	plain := buildSource(t, "plain", ds)
	withInt := buildInteriorSource(t, "interior", ds)

	cfg := DefaultConfig()
	cur, err := IndexJoin(plain, plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(want)

	icfg := cfg
	icfg.UseInteriorApprox = true
	fn, err := NewJoinFunction(withInt, withInt, icfg)
	if err != nil {
		t.Fatal(err)
	}
	count, stats, err := RunJoinFunction(fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same rowid layout in both tables (loaded identically), so counts
	// and pair sets must match.
	if count != len(want) {
		t.Fatalf("interior join %d pairs, plain join %d", count, len(want))
	}
	if stats.FastAccepts == 0 {
		t.Errorf("no fast accepts on overlapping star data")
	}
	// Fast accepts must reduce secondary-filter work.
	plainFn, err := NewJoinFunction(withInt, withInt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, plainStats, err := RunJoinFunction(plainFn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GeomFetches >= plainStats.GeomFetches {
		t.Errorf("fast accepts did not reduce geometry fetches: %d vs %d",
			stats.GeomFetches, plainStats.GeomFetches)
	}
	// Exact pair-set equality.
	pcur, err := IndexJoin(withInt, withInt, icfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectPairs(pcur)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(got)
	if !pairsEqual(got, want) {
		t.Fatalf("interior join pair set differs from plain join")
	}
}

func TestInteriorFastAcceptDisabledCases(t *testing.T) {
	ds := datagen.Stars(300, 223)
	src := buildInteriorSource(t, "src", ds)
	// fastAccepts runs the self-join of s with the interior flag set and
	// returns its fast accepts beyond those of the same join without it
	// (a self-join proves every row's pair with itself either way).
	fastAccepts := func(s Source, cfg Config) int {
		t.Helper()
		n := [2]int{}
		for i, interior := range []bool{false, true} {
			cfg.UseInteriorApprox = interior
			fn, err := NewJoinFunction(s, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := RunJoinFunction(fn, 0)
			if err != nil {
				t.Fatal(err)
			}
			n[i] = stats.FastAccepts
		}
		return n[1] - n[0]
	}

	// Distance joins must not use the fast accept (interior overlap
	// does not prove a distance bound tighter than 0, and the predicate
	// differs); verify results still match brute force.
	cfg := DefaultConfig()
	cfg.Distance = 2
	if n := fastAccepts(src, cfg); n != 0 {
		t.Errorf("distance join used %d fast accepts", n)
	}
	// TOUCH joins likewise.
	if n := fastAccepts(src, Config{Mask: geom.MaskTouch, SortCandidates: true}); n != 0 {
		t.Errorf("touch join used %d fast accepts", n)
	}
	// Enabling the flag over an index without interiors is a no-op.
	if n := fastAccepts(buildSource(t, "plain2", ds), DefaultConfig()); n != 0 {
		t.Errorf("interior-less index produced %d fast accepts", n)
	}
}

func TestInteriorJoinCounties(t *testing.T) {
	// Counties touch at boundaries; interiors never overlap across
	// distinct counties, but self-pairs fast-accept (interior ∩ interior
	// of the same polygon). The result set must match the plain join.
	ds := datagen.Counties(49, 227)
	src := buildInteriorSource(t, "counties_i", ds)
	cfg := DefaultConfig()
	icfg := cfg
	icfg.UseInteriorApprox = true

	cur, err := IndexJoin(src, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CollectPairs(cur)
	if err != nil {
		t.Fatal(err)
	}
	icur, err := IndexJoin(src, src, icfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectPairs(icur)
	if err != nil {
		t.Fatal(err)
	}
	SortPairs(want)
	SortPairs(got)
	if !pairsEqual(got, want) {
		t.Fatalf("interior counties join %d pairs, plain %d", len(got), len(want))
	}
}
