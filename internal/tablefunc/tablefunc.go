// Package tablefunc implements Oracle 9i's parallel and pipelined table
// functions (§2 of the paper) on goroutines and channels.
//
// A table function is "a function that can produce a set of rows as
// output" and can be used in place of a table in a FROM clause. Two
// properties matter to the paper:
//
//  1. Pipelining — results are produced through a start-fetch-close
//     interface, iteratively, "essential to support table functions that
//     return a large set of rows that cannot fit in memory". The
//     TableFunction interface here is exactly start/fetch/close, and
//     Pipeline adapts it to a pull cursor.
//
//  2. Parallelism — a table function "directly accept[s] a set of rows
//     (a cursor)" and the runtime "allows a set of input rows to be
//     partitioned across multiple instances of a parallel function".
//     Parallel runs one instance per input partition on its own
//     goroutine and funnels their fetch batches into one output stream.
package tablefunc

import (
	"errors"
	"fmt"
	"sync"

	"spatialtf/internal/storage"
)

// DefaultBatch is the default number of rows per fetch call.
const DefaultBatch = storage.DefaultBatch

// TableFunction is the ODCITable-style start-fetch-close contract.
// Implementations are driven by a single goroutine: Start once, Fetch
// until it returns an empty batch, then Close exactly once.
type TableFunction interface {
	// Start acquires resources and prepares iteration.
	Start() error
	// Fetch appends up to max result rows to b — the collection of rows
	// one fetch call returns — under the ownership rules of
	// storage.Batch. Appending none signals exhaustion.
	Fetch(b *storage.Batch, max int) error
	// Close releases resources. It is called even after errors.
	Close() error
}

// Factory builds one instance of a parallel table function over one
// partition of the input cursor. The instance number is informational
// (labels, affinity).
type Factory func(instance int, input storage.Cursor) (TableFunction, error)

// --- pipelined (serial) execution ---

// pipelineCursor adapts a TableFunction to storage.Cursor, fetching
// batches lazily: one NextBatch is one fetch call, straight into the
// consumer's batch.
type pipelineCursor struct {
	fn      TableFunction
	batch   int
	started bool
	done    bool
	closed  bool
	failed  error
	it      storage.RowIter
}

// Pipeline returns a cursor that lazily drives fn. batch <= 0 selects
// DefaultBatch. The returned cursor yields InvalidRowID for every row
// (table-function output rows are synthesized, not stored).
func Pipeline(fn TableFunction, batch int) storage.Cursor {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &pipelineCursor{fn: fn, batch: batch}
}

var errClosed = errors.New("tablefunc: cursor used after Close")

func (c *pipelineCursor) Next() (storage.RowID, storage.Row, bool, error) {
	if c.closed {
		return storage.InvalidRowID, nil, false, errClosed
	}
	return c.it.Next(c)
}

// NextBatch implements storage.Cursor with one fetch call of max rows
// (the pipeline's own batch size when max <= 0).
func (c *pipelineCursor) NextBatch(b *storage.Batch, max int) error {
	if c.closed {
		return errClosed
	}
	if c.done {
		return c.failed
	}
	if !c.started {
		c.started = true
		if err := c.fn.Start(); err != nil {
			c.done = true
			c.fn.Close()
			c.failed = fmt.Errorf("tablefunc: start: %w", err)
			return c.failed
		}
	}
	if max <= 0 {
		max = c.batch
	}
	n := len(b.Rows)
	if err := c.fn.Fetch(b, max); err != nil {
		c.done = true
		c.fn.Close()
		c.failed = fmt.Errorf("tablefunc: fetch: %w", err)
		return c.failed
	}
	if len(b.Rows) == n {
		c.done = true
		c.fn.Close()
	}
	return nil
}

func (c *pipelineCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.started && !c.done {
		return c.fn.Close()
	}
	return nil
}

// --- parallel execution ---

// parallelCursor merges the output of N instances running concurrently.
// Batches circulate: an instance fetches into a batch and sends it, the
// consumer takes the rows and sends the emptied batch back, so a steady
// stream reuses the same few batches' storage.
type parallelCursor struct {
	out    chan *storage.Batch
	free   chan *storage.Batch // emptied batches on their way back to the instances
	errs   chan error
	stop   chan struct{}
	once   sync.Once
	wg     *sync.WaitGroup
	cur    *storage.Batch // received batch not yet fully handed over
	pos    int            // first row of cur still to hand over
	failed error
	done   bool
	it     storage.RowIter
}

// Parallel runs one table-function instance per partition, each on its
// own goroutine, pipelining fetch batches into the returned cursor. The
// inter-instance row order is unspecified (a SQL row source is a set).
// The first instance error aborts the whole function and surfaces from
// Next/NextBatch. batch <= 0 selects DefaultBatch.
func Parallel(partitions []storage.Cursor, factory Factory, batch int) storage.Cursor {
	if batch <= 0 {
		batch = DefaultBatch
	}
	c := &parallelCursor{
		out: make(chan *storage.Batch, len(partitions)),
		// Sized for every batch in circulation — an instance makes a
		// new one only when free is empty, so there are never more than
		// one being filled per instance, len(out) queued and one with
		// the consumer.
		free: make(chan *storage.Batch, 2*len(partitions)+1),
		errs: make(chan error, len(partitions)),
		stop: make(chan struct{}),
		wg:   &sync.WaitGroup{},
	}
	// An instance takes an emptied batch back off free when there is
	// one and stops sending once the consumer has closed.
	next := func() *storage.Batch {
		select {
		case b := <-c.free:
			return b
		default:
			return new(storage.Batch)
		}
	}
	put := func(b *storage.Batch) bool {
		select {
		case c.out <- b:
			return true
		case <-c.stop:
			return false
		}
	}
	for i, part := range partitions {
		c.wg.Add(1)
		go func(i int, part storage.Cursor) {
			defer c.wg.Done()
			defer part.Close()
			if err := runInstance(i, part, factory, batch, next, put); err != nil {
				select {
				case c.errs <- err:
				default:
				}
			}
		}(i, part)
	}
	go func() {
		c.wg.Wait()
		close(c.out)
	}()
	return c
}

// runInstance drives instance i over its partition: start, then fetch
// into next's batches, handing each non-empty one to put, until the
// instance is exhausted or put returns false. The instance is closed on
// every path. Parallel runs it on one goroutine per partition.
func runInstance(i int, part storage.Cursor, factory Factory, batch int, next func() *storage.Batch, put func(*storage.Batch) bool) error {
	fn, err := factory(i, part)
	if err != nil {
		return fmt.Errorf("tablefunc: instance %d: %w", i, err)
	}
	defer fn.Close()
	if err := fn.Start(); err != nil {
		return fmt.Errorf("tablefunc: instance %d start: %w", i, err)
	}
	for {
		b := next()
		if err := fn.Fetch(b, batch); err != nil {
			return fmt.Errorf("tablefunc: instance %d fetch: %w", i, err)
		}
		if len(b.Rows) == 0 || !put(b) {
			return nil
		}
	}
}

func (c *parallelCursor) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

// NextBatch implements storage.Cursor. An instance's fetch batch that
// fits what the consumer asked for changes hands whole, by exchanging
// storage with the consumer's (empty) batch; otherwise — the consumer
// is topping up a batch, or asked for fewer rows than the instances
// fetch — the rows it wants are copied over.
func (c *parallelCursor) NextBatch(b *storage.Batch, max int) error {
	if c.failed != nil {
		return c.failed
	}
	if c.cur == nil {
		if c.done {
			return nil
		}
		select {
		case err := <-c.errs:
			c.failed = err
			c.shutdown()
			return err
		case src, ok := <-c.out:
			if !ok {
				// Producers finished; surface a late error if any.
				select {
				case err := <-c.errs:
					c.failed = err
					return err
				default:
				}
				c.done = true
				return nil
			}
			c.cur, c.pos = src, 0
		}
	}
	src := c.cur
	n := len(src.Rows) - c.pos
	if max > 0 && max < n {
		n = max
	}
	if n == len(src.Rows) && len(b.Rows) == 0 {
		*b, *src = *src, *b
	} else {
		b.AppendCopy(src.Rows[c.pos : c.pos+n])
		if c.pos += n; c.pos < len(src.Rows) {
			return nil
		}
	}
	c.cur = nil
	src.Reset()
	c.free <- src // never blocks: free holds every batch in circulation
	return nil
}

func (c *parallelCursor) shutdown() {
	c.once.Do(func() { close(c.stop) })
}

// Close cancels outstanding instances and waits for them to exit.
func (c *parallelCursor) Close() error {
	c.shutdown()
	// Drain so producers blocked on send can observe stop and finish.
	go func() {
		for range c.out {
		}
	}()
	c.wg.Wait()
	c.done = true
	return nil
}
