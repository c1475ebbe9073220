package cluster

import (
	"sync"
	"time"

	"spatialtf/internal/storage"
	"spatialtf/internal/tablefunc"
	"spatialtf/internal/telemetry"
	"spatialtf/internal/wire"
)

// lossTracker collects shard failures during a partial-result scatter.
// Shared by every remote instance of one query; the gather cursor
// surfaces the collected losses as a *PartialError at end of stream.
type lossTracker struct {
	mu   sync.Mutex
	perr *PartialError
}

func (t *lossTracker) record(e *ShardError) {
	t.mu.Lock()
	if t.perr == nil {
		t.perr = &PartialError{}
	}
	t.perr.Failed = append(t.perr.Failed, e)
	t.mu.Unlock()
}

// partial returns the accumulated loss as one error, or nil when every
// shard delivered. The error is built in record so the merge loop's
// end-of-stream check stays allocation-free.
func (t *lossTracker) partial() *PartialError {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.perr
}

// remoteTF adapts one shard's open wire cursor to the table-function
// start–fetch–close contract, which is the whole trick of the cluster:
// tablefunc.Parallel cannot tell a network row source from a local one,
// so the scatter-gather merge is the paper's parallel table function
// with remote instances.
type remoteTF struct {
	co      *Coordinator
	shard   int
	addr    string
	cur     *wire.Cursor
	tracker *lossTracker // nil in fail-fast mode
}

// Start is a no-op: the cursor was already opened during the scatter
// phase (opening there lets the coordinator apply its loss policy
// before any rows flow).
func (r *remoteTF) Start() error { return nil }

// Fetch decodes the next remote batch straight into b, which the
// parallel cursor hands back once the consumer is done with its rows.
// In partial mode a transport failure is recorded and the instance ends
// cleanly (the merged stream stays alive on the surviving shards);
// server-reported errors always propagate — a shard that answered with
// an error is not "lost".
func (r *remoteTF) Fetch(b *storage.Batch, max int) error {
	if r.cur == nil {
		return nil
	}
	for {
		n := len(b.Rows)
		done, err := r.cur.FetchInto(b, max)
		if err != nil {
			se := &ShardError{Shard: r.shard, Addr: r.addr, Err: err}
			if _, remote := err.(*wire.RemoteError); remote {
				return se
			}
			// Transport failure: this connection is unusable for anyone.
			r.co.dropClient(r.shard)
			r.cur = nil
			if r.tracker != nil {
				r.tracker.record(se)
				return nil
			}
			return se
		}
		if len(b.Rows) > n || done {
			return nil
		}
	}
}

// Close releases the remote cursor. A failed close is ignored: the
// rows are already delivered, and if the connection died the server
// reaps the cursor with it.
func (r *remoteTF) Close() error {
	if r.cur != nil {
		_ = r.cur.Close()
		r.cur = nil
	}
	return nil
}

// emptyCursor is the placeholder input partition a remote instance
// receives: the real input lives on the shard, so the local partition
// carries no rows.
type emptyCursor struct{}

func (emptyCursor) Next() (storage.RowID, storage.Row, bool, error) {
	return storage.InvalidRowID, nil, false, nil
}
func (emptyCursor) NextBatch(*storage.Batch, int) error { return nil }
func (emptyCursor) Close() error                        { return nil }

// gather merges the scatter instances into one client-facing cursor
// via tablefunc.Parallel, layering the loss policy and merge-stage
// accounting on top.
func gather(co *Coordinator, tfs []*remoteTF, tracker *lossTracker, trace *telemetry.Trace) storage.Cursor {
	parts := make([]storage.Cursor, len(tfs))
	factory := func(i int, _ storage.Cursor) (tablefunc.TableFunction, error) {
		return tfs[i], nil
	}
	for i := range parts {
		parts[i] = emptyCursor{}
	}
	merged := tablefunc.Parallel(parts, factory, co.opt.FetchBatch)
	return &gatherCursor{in: merged, tracker: tracker, trace: trace}
}

// gatherCursor finishes a scatter-gather stream: it accounts merge
// time (one StageMerge span per gathered batch) and, in partial mode,
// converts recorded shard losses into a *PartialError at end of stream
// — the caller always learns the result was incomplete, never sees a
// silently short row set.
type gatherCursor struct {
	in      storage.Cursor
	tracker *lossTracker
	trace   *telemetry.Trace
	it      storage.RowIter

	done   bool
	failed error
}

func (c *gatherCursor) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

// NextBatch implements storage.Cursor: a shard's fetch batch passes
// through whole.
func (c *gatherCursor) NextBatch(b *storage.Batch, max int) error {
	if c.failed != nil || c.done {
		return c.failed
	}
	n := len(b.Rows)
	t0 := time.Now()
	err := c.in.NextBatch(b, max)
	c.trace.Add(telemetry.StageMerge, time.Since(t0), 1)
	switch {
	case err != nil:
		c.failed = err
	case len(b.Rows) == n:
		c.done = true
		if c.tracker != nil {
			if pe := c.tracker.partial(); pe != nil {
				c.failed = pe
			}
		}
	}
	return c.failed
}

func (c *gatherCursor) Close() error {
	c.trace.Finish()
	return c.in.Close()
}
