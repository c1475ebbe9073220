package cluster

import (
	"errors"
	"testing"
	"time"

	"spatialtf/internal/datagen"
	"spatialtf/internal/storage"
	"spatialtf/internal/storage/storagetest"
)

// TestBatchDrainEqualsRowDrain is the cluster leg of the batch ≡ row
// differential: the gather cursor over three shards, under both loss
// policies, and under the partial policy with a shard already dead —
// where the survivors' rows must arrive before the *PartialError
// whichever way the stream is read.
func TestBatchDrainEqualsRowDrain(t *testing.T) {
	queries := []string{
		"SELECT id, name FROM pts",
		"SELECT key1, key2 FROM TABLE(spatial_join('pts','geom','pts','geom','distance=3','keys=id:id'))",
	}
	for _, policy := range []struct {
		name string
		loss string
	}{{"fail", LossFail}, {"partial", LossPartial}} {
		co, shards := bootCluster(t, 3, 3, Options{
			OnShardLoss: policy.loss,
			DialTimeout: 500 * time.Millisecond,
			ReadTimeout: 2 * time.Second,
		})
		sess := co.NewSession()
		mustExec(t, sess, datasetSQL("pts", datagen.Counties(300, 5))...)
		open := func(sql string) func() (storage.Cursor, error) {
			return func() (storage.Cursor, error) {
				st, err := sess.ExecuteStream(sql)
				if err != nil {
					return nil, err
				}
				return st.Cursor, nil
			}
		}
		for _, sql := range queries {
			t.Run(policy.name, func(t *testing.T) {
				storagetest.CheckBatchEqualsNext(t, false, open(sql))
			})
		}
		if policy.loss != LossPartial {
			continue
		}
		shards[2].kill(t)
		// The first query after the loss finds the cached connection
		// dead (EOF); from then on the shard refuses the dial, so the
		// drains compared below all end with the same error.
		storagetest.DrainNext(mustCursor(t, open(queries[0])))
		t.Run("partial with a dead shard", func(t *testing.T) {
			storagetest.CheckBatchEqualsNext(t, false, open(queries[0]))
			rows, err := storagetest.DrainBatches(t, mustCursor(t, open(queries[0])), storage.DefaultBatch)
			var pe *PartialError
			if !errors.As(err, &pe) || len(rows) == 0 {
				t.Fatalf("dead shard: %d rows, then %v; want the survivors' rows, then a *PartialError", len(rows), err)
			}
		})
	}
}

func mustCursor(t testing.TB, open func() (storage.Cursor, error)) storage.Cursor {
	t.Helper()
	cur, err := open()
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// TestClusterJoinAllocFloor holds a scatter-gather join through the
// coordinator to an allocation budget per result row, counted over the
// whole process: the shards' scoped joins and servers, the frame codec
// both ways, the remote cursors and the gather cursor merging them.
// The count was 2.32 a row while each key cell copied its row image out
// of the heap; Table.FetchColumn now decodes the cell from the pinned
// page, and it is 0.290 (725 a statement). The budget leaves about
// eighty allocations a statement for the sockets' varying batch
// boundaries. The drain asks for 16 rows at a time into one reused
// batch, so the gather cursor runs over 150 times a statement and one
// allocation added per call costs more than the budget's slack.
func TestClusterJoinAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	co, _ := bootCluster(t, 3, 3, Options{})
	sess := co.NewSession()
	mustExec(t, sess, datasetSQL("pts", datagen.Counties(300, 5))...)
	const join = "SELECT key1, key2 FROM TABLE(spatial_join('pts','geom','pts','geom','distance=3','keys=id:id'))"
	var b storage.Batch
	run := func() int {
		st, err := sess.ExecuteStream(join)
		if err != nil {
			t.Fatal(err)
		}
		cur := st.Cursor
		defer cur.Close()
		rows := 0
		for {
			b.Reset()
			if err := cur.NextBatch(&b, 16); err != nil {
				t.Fatal(err)
			}
			if len(b.Rows) == 0 {
				return rows
			}
			rows += len(b.Rows)
		}
	}
	rows := run() // warm: connections, geometry caches, the batch
	if rows < 2000 {
		t.Fatalf("join returned %d rows; the budget needs a result large enough to amortise per-statement setup", rows)
	}
	perStmt := testing.AllocsPerRun(5, func() { run() })
	perRow := perStmt / float64(rows)
	t.Logf("%d rows, %.0f allocations per statement, %.3f per row", rows, perStmt, perRow)
	if perRow > 0.29 {
		t.Errorf("%.3f allocations per result row, budget 0.29", perRow)
	}
}
