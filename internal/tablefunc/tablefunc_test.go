package tablefunc

import (
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"spatialtf/internal/storage"
	"spatialtf/internal/storage/storagetest"
)

// counterFn emits rows base, base+1, ... base+count-1, recording its
// lifecycle for protocol assertions.
type counterFn struct {
	base, count int
	emitted     int
	started     int32
	closed      int32
	startErr    error
	fetchErrAt  int // emit an error when emitted reaches this (0 = never)
}

func (c *counterFn) Start() error {
	atomic.AddInt32(&c.started, 1)
	return c.startErr
}

func (c *counterFn) Fetch(b *storage.Batch, max int) error {
	for n := 0; n < max && c.emitted < c.count; n++ {
		if c.fetchErrAt > 0 && c.emitted >= c.fetchErrAt {
			return errors.New("synthetic fetch failure")
		}
		b.Extend(1, 1)[0][0] = storage.Int(int64(c.base + c.emitted))
		c.emitted++
	}
	return nil
}

func (c *counterFn) Close() error {
	atomic.AddInt32(&c.closed, 1)
	return nil
}

// doublingFn reads its input partition and emits each value doubled,
// proving the function transformed it.
type doublingFn struct{ input storage.Cursor }

func (f *doublingFn) Start() error { return nil }

func (f *doublingFn) Fetch(b *storage.Batch, max int) error {
	for n := 0; n < max; n++ {
		_, row, ok, err := f.input.Next()
		if err != nil || !ok {
			return err
		}
		b.Rows = append(b.Rows, storage.Row{storage.Int(row[0].I * 2)})
	}
	return nil
}

func (f *doublingFn) Close() error { return nil }

func drainInts(t *testing.T, c storage.Cursor) []int {
	t.Helper()
	var out []int
	for {
		_, row, ok, err := c.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		out = append(out, int(row[0].I))
	}
	c.Close()
	return out
}

func TestPipelineBasic(t *testing.T) {
	fn := &counterFn{base: 0, count: 1000}
	got := drainInts(t, Pipeline(fn, 64))
	if len(got) != 1000 {
		t.Fatalf("pipeline yielded %d rows", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("row %d = %d (order broken)", i, v)
		}
	}
	if fn.started != 1 || fn.closed != 1 {
		t.Errorf("lifecycle: started=%d closed=%d", fn.started, fn.closed)
	}
}

func TestPipelineLazyStart(t *testing.T) {
	fn := &counterFn{base: 0, count: 5}
	c := Pipeline(fn, 2)
	if fn.started != 0 {
		t.Fatalf("function started before first Next")
	}
	if _, _, ok, err := c.Next(); !ok || err != nil {
		t.Fatalf("first Next: %v %v", ok, err)
	}
	if fn.started != 1 {
		t.Fatalf("function not started by first Next")
	}
	c.Close()
}

func TestPipelineStartError(t *testing.T) {
	fn := &counterFn{base: 0, count: 5, startErr: errors.New("cannot start")}
	c := Pipeline(fn, 2)
	if _, _, _, err := c.Next(); err == nil {
		t.Fatalf("start error not surfaced")
	}
	if fn.closed != 1 {
		t.Errorf("function not closed after start error")
	}
}

func TestPipelineFetchError(t *testing.T) {
	fn := &counterFn{base: 0, count: 100, fetchErrAt: 10}
	c := Pipeline(fn, 4)
	seen := 0
	for {
		_, _, ok, err := c.Next()
		if err != nil {
			break
		}
		if !ok {
			t.Fatalf("stream ended without the expected error after %d rows", seen)
		}
		seen++
		if seen > 100 {
			t.Fatalf("no error after %d rows", seen)
		}
	}
	if fn.closed != 1 {
		t.Errorf("function not closed after fetch error")
	}
}

func TestPipelineCloseEarly(t *testing.T) {
	fn := &counterFn{base: 0, count: 1 << 20}
	c := Pipeline(fn, 8)
	c.Next()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if fn.closed != 1 {
		t.Errorf("early Close did not close the function")
	}
	if _, _, _, err := c.Next(); err == nil {
		t.Errorf("Next after Close: want error")
	}
}

func TestPipelineEmptyFunction(t *testing.T) {
	fn := &counterFn{count: 0}
	got := drainInts(t, Pipeline(fn, 16))
	if len(got) != 0 {
		t.Fatalf("empty function yielded %d rows", len(got))
	}
	if fn.closed != 1 {
		t.Errorf("empty function not closed")
	}
}

func TestParallelMergesAllPartitions(t *testing.T) {
	// 4 partitions of 250 rows each; the merged stream must be the
	// multiset union.
	var parts []storage.Cursor
	for i := 0; i < 4; i++ {
		parts = append(parts, storage.NewSliceCursor(nil, make([]storage.Row, 0)))
	}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		return &counterFn{base: instance * 250, count: 250}, nil
	}
	got := drainInts(t, Parallel(parts, factory, 32))
	if len(got) != 1000 {
		t.Fatalf("parallel yielded %d rows", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("missing or duplicated row near %d (= %d)", i, v)
		}
	}
}

func TestParallelErrorPropagates(t *testing.T) {
	parts := []storage.Cursor{
		storage.NewSliceCursor(nil, nil),
		storage.NewSliceCursor(nil, nil),
	}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		if instance == 1 {
			return &counterFn{base: 0, count: 100, fetchErrAt: 5}, nil
		}
		return &counterFn{base: 0, count: 100000}, nil
	}
	c := Parallel(parts, factory, 8)
	sawErr := false
	for i := 0; i < 200000; i++ {
		_, _, ok, err := c.Next()
		if err != nil {
			sawErr = true
			break
		}
		if !ok {
			break
		}
	}
	if !sawErr {
		t.Fatalf("instance error never surfaced")
	}
	c.Close()
}

func TestParallelFactoryError(t *testing.T) {
	parts := []storage.Cursor{storage.NewSliceCursor(nil, nil)}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		return nil, errors.New("factory boom")
	}
	c := Parallel(parts, factory, 8)
	_, _, _, err := c.Next()
	for err == nil {
		var ok bool
		_, _, ok, err = c.Next()
		if !ok && err == nil {
			t.Fatalf("factory error never surfaced")
		}
	}
	c.Close()
}

func TestParallelCloseCancelsInstances(t *testing.T) {
	parts := []storage.Cursor{
		storage.NewSliceCursor(nil, nil),
		storage.NewSliceCursor(nil, nil),
	}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		return &counterFn{base: 0, count: 1 << 30}, nil
	}
	c := Parallel(parts, factory, 8)
	if _, _, ok, err := c.Next(); !ok || err != nil {
		t.Fatalf("first Next: %v %v", ok, err)
	}
	// Close must return even though producers have billions of rows
	// left; Parallel's stop channel cancels them.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelConsumesInputCursors(t *testing.T) {
	// The classic use: instances read their own partition.
	tab, err := storage.NewTable("t", []storage.Column{{Name: "v", Type: storage.TInt64}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tab.Insert(storage.Row{storage.Int(int64(i))})
	}
	parts := PartitionTable(tab, 4)
	if len(parts) < 2 {
		t.Fatalf("expected multiple partitions, got %d", len(parts))
	}
	factory := func(instance int, input storage.Cursor) (TableFunction, error) {
		return &doublingFn{input: input}, nil
	}
	got := drainInts(t, Parallel(parts, factory, 0))
	if len(got) != 2000 {
		t.Fatalf("got %d rows", len(got))
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("row %d = %d, want %d", i, v, i*2)
		}
	}
}

func TestParallelNoPartitions(t *testing.T) {
	c := Parallel(nil, func(int, storage.Cursor) (TableFunction, error) {
		return &counterFn{count: 5}, nil
	}, 8)
	got := drainInts(t, c)
	if len(got) != 0 {
		t.Fatalf("no-partition parallel yielded %d rows", len(got))
	}
}

func TestPartitionTableTinyTable(t *testing.T) {
	tab, err := storage.NewTable("tiny", []storage.Column{{Name: "v", Type: storage.TInt64}})
	if err != nil {
		t.Fatal(err)
	}
	if got := PartitionTable(tab, 4); len(got) != 0 {
		t.Errorf("empty table partitions = %d", len(got))
	}
	tab.Insert(storage.Row{storage.Int(1)})
	parts := PartitionTable(tab, 4)
	if len(parts) != 1 {
		t.Errorf("1-row table partitions = %d", len(parts))
	}
	_, rows, err := storage.Drain(parts[0])
	if err != nil || len(rows) != 1 {
		t.Errorf("partition contents: %d rows, %v", len(rows), err)
	}
}

// TestBatchDrainEqualsRowDrain is the tablefunc leg of the repository's
// batch ≡ row differential: Pipeline and Parallel must deliver the same
// rows, and the same error after the same rows, whether they are read
// with NextBatch at any size or with Next.
func TestBatchDrainEqualsRowDrain(t *testing.T) {
	t.Run("pipeline", func(t *testing.T) {
		storagetest.CheckBatchEqualsNext(t, true, func() (storage.Cursor, error) {
			return Pipeline(&counterFn{count: 1000}, 0), nil
		})
	})
	t.Run("pipeline fetch error", func(t *testing.T) {
		storagetest.CheckBatchEqualsNext(t, true, func() (storage.Cursor, error) {
			return Pipeline(&counterFn{count: 1000, fetchErrAt: 300}, 64), nil
		})
	})
	parallel := func(errAt int) func() (storage.Cursor, error) {
		return func() (storage.Cursor, error) {
			parts := make([]storage.Cursor, 3)
			for i := range parts {
				parts[i] = storage.NewSliceCursor(nil, nil)
			}
			factory := func(instance int, _ storage.Cursor) (TableFunction, error) {
				fn := &counterFn{base: instance * 1000, count: 700}
				if instance == 2 {
					fn.fetchErrAt = errAt
				}
				return fn, nil
			}
			return Parallel(parts, factory, 100), nil
		}
	}
	t.Run("parallel", func(t *testing.T) {
		storagetest.CheckBatchEqualsNext(t, false, parallel(0))
	})
	// An instance error aborts the merge while the other instances are
	// still producing, so which rows got out first is a race; the error
	// itself is not.
	t.Run("parallel instance error", func(t *testing.T) {
		for _, size := range storagetest.BatchSizes {
			cur, _ := parallel(250)()
			_, wantErr := storagetest.DrainNext(cur)
			cur, _ = parallel(250)()
			_, gotErr := storagetest.DrainBatches(t, cur, size)
			if wantErr == nil || !storagetest.SameError(gotErr, wantErr) {
				t.Fatalf("batch size %d: batch drain ended with %v, row drain with %v", size, gotErr, wantErr)
			}
		}
	})
}
