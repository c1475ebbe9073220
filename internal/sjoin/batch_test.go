package sjoin

import (
	"testing"

	"spatialtf/internal/datagen"
	"spatialtf/internal/storage"
	"spatialtf/internal/storage/storagetest"
)

// TestBatchDrainEqualsRowDrain is the sjoin leg of the batch ≡ row
// differential: every join path, and the cluster scope filter over
// each, must produce the same pair rows read a fetch batch at a time
// (at any size) as read row by row.
func TestBatchDrainEqualsRowDrain(t *testing.T) {
	stars := buildSource(t, "stars", datagen.Stars(300, 41))
	cfg := DefaultConfig()
	cfg.Distance = 2
	paths := []struct {
		name    string
		ordered bool
		open    func() (storage.Cursor, error)
	}{
		{"serial pipeline", true, func() (storage.Cursor, error) { return IndexJoin(stars, stars, cfg) }},
		{"subtree parallel", false, func() (storage.Cursor, error) { return ParallelIndexJoin(stars, stars, cfg, 3) }},
		{"grid parallel", false, func() (storage.Cursor, error) { return GridParallelJoin(stars, stars, cfg, 3) }},
	}
	// A scope that owns about half the plane, in stripes, so most
	// batches lose rows and some lose all of them.
	own := func(x, y float64) bool { return int(x/3)%2 == 0 }
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			storagetest.CheckBatchEqualsNext(t, p.ordered, p.open)
		})
		t.Run(p.name+" scoped", func(t *testing.T) {
			storagetest.CheckBatchEqualsNext(t, p.ordered, func() (storage.Cursor, error) {
				cur, err := p.open()
				if err != nil {
					return nil, err
				}
				return ScopedPairFilter(cur, stars, stars, cfg.Distance, nil, own)
			})
		})
	}
	// The scoped filter must drop something and keep something, or the
	// legs above proved nothing about it.
	all, err := CollectPairs(mustOpen(t, paths[0].open))
	if err != nil {
		t.Fatal(err)
	}
	scoped, err := ScopedPairFilter(mustOpen(t, paths[0].open), stars, stars, cfg.Distance, nil, own)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := CollectPairs(scoped)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scope keeps %d of %d pairs", len(kept), len(all))
	if len(kept) == 0 || len(kept) >= len(all) {
		t.Fatalf("scope keeps %d of %d pairs; want a proper subset", len(kept), len(all))
	}
}

func mustOpen(t *testing.T, open func() (storage.Cursor, error)) storage.Cursor {
	t.Helper()
	cur, err := open()
	if err != nil {
		t.Fatal(err)
	}
	return cur
}
