package sqlmini

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialtf"
	"spatialtf/internal/storage"
	"spatialtf/internal/storage/storagetest"
)

// TestBatchDrainEqualsRowDrain is the sqlmini leg of the batch ≡ row
// differential: every cursor ExecuteStream hands the server — the heap
// scan projection, the rowid fetch behind a spatial predicate, the join
// adapter with rowid and keyed projections, and their scoped forms —
// must stream the same rows a fetch batch at a time as row by row.
func TestBatchDrainEqualsRowDrain(t *testing.T) {
	e := scopedEngine(t, 900)
	// The join legs run over points: the same row pipeline at a
	// fraction of the exact-predicate cost, so the test stays quick
	// under the race detector.
	exec(t, e, "CREATE TABLE pt (id INT, name VARCHAR, geom GEOMETRY)")
	exec(t, e, "CREATE INDEX pt_idx ON pt(geom) INDEXTYPE IS RTREE")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1500; i++ {
		exec(t, e, fmt.Sprintf("INSERT INTO pt VALUES (%d, 'pt-%d', 'POINT (%g %g)')", i, i, rng.Float64()*1000, rng.Float64()*1000))
	}
	scope := spatialtf.NewClusterScope(spatialtf.MBR{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, 4, 4, 2, 0)
	for _, c := range []struct {
		name    string
		sql     string
		ordered bool
	}{
		{"projectCursor", "SELECT name, id FROM sc", true},
		{"fetchCursor", "SELECT id, name FROM sc WHERE sdo_relate(geom, 'POLYGON ((0 0, 900 0, 900 900, 0 900, 0 0))', 'mask=anyinteract') = 'TRUE'", true},
		{"join adapter", "SELECT rid1, rid2 FROM TABLE(spatial_join('pt','geom','pt','geom','distance=15'))", true},
		{"join adapter one column", "SELECT rid2 FROM TABLE(spatial_join('pt','geom','pt','geom','distance=15'))", true},
		{"join adapter keyed", "SELECT key1, key2 FROM TABLE(spatial_join('pt','geom','pt','geom','distance=15','keys=id:name'))", true},
		{"join adapter grid", "SELECT rid1, rid2 FROM TABLE(spatial_join('pt','geom','pt','geom','distance=15','algo=grid', 2))", false},
	} {
		for _, sc := range []*spatialtf.ClusterScope{nil, scope} {
			name := c.name
			if sc != nil {
				name += " scoped"
			}
			t.Run(name, func(t *testing.T) {
				rows := 0
				storagetest.CheckBatchEqualsNext(t, c.ordered, func() (storage.Cursor, error) {
					st, err := e.ExecuteStreamScoped(c.sql, sc)
					if err != nil {
						return nil, err
					}
					return &countingCursor{Cursor: st.Cursor, rows: &rows}, nil
				})
				// One row-at-a-time drain per batch size went through the counter.
				if per := rows / len(storagetest.BatchSizes); per <= storage.DefaultBatch {
					t.Fatalf("%d rows per drain: too few to cross a batch boundary", per)
				}
			})
		}
	}
}

// countingCursor counts the rows a test drained through it.
type countingCursor struct {
	storage.Cursor
	rows *int
}

func (c *countingCursor) Next() (storage.RowID, storage.Row, bool, error) {
	id, row, ok, err := c.Cursor.Next()
	if ok {
		*c.rows++
	}
	return id, row, ok, err
}
