package sqlmini

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"spatialtf"
	"spatialtf/internal/extidx"
	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
	"spatialtf/internal/telemetry"
)

// Stream is the cursor form of a statement result, the unit the query
// server ships over the wire: SELECT row sources come back as a typed
// schema plus a pull cursor (so a spatial_join larger than memory
// streams batch by batch, exactly like the local table-function
// pipeline), while DDL/DML/COUNT outcomes come back as an immediate
// Result.
type Stream struct {
	// Schema and Cursor are set for streaming SELECTs. The caller owns
	// the cursor and must Close it (an open join cursor pins its operand
	// indexes against DML).
	Schema []storage.Column
	Cursor storage.Cursor
	// Result is set for immediate outcomes (CREATE/INSERT/DELETE/
	// UPDATE/COUNT); Cursor is nil then.
	Result *Result
}

// ExecuteStream parses and runs one statement, streaming SELECT row
// sources instead of materialising them.
func (e *Engine) ExecuteStream(sql string) (*Stream, error) {
	return e.ExecuteStreamScoped(sql, nil)
}

// ExecuteStreamScoped is ExecuteStream restricted to the results a
// cluster scope owns; a nil scope restricts nothing. It is the
// shard-side half of a scatter-gather query: the coordinator sends
// every shard the same SELECT plus its scope, and concatenating the
// shard streams yields every result exactly once (see
// spatialtf.ClusterScope for the reference-point rules). Only SELECT
// statements can be scoped; DDL/DML and sdo_nn are routed differently
// by the coordinator and are rejected under a scope.
func (e *Engine) ExecuteStreamScoped(sql string, scope *spatialtf.ClusterScope) (*Stream, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if s, ok := stmt.(Select); ok {
		return e.selectStream(s, scope)
	}
	if scope != nil {
		return nil, fmt.Errorf("sqlmini: scoped execution supports SELECT only, got %T", stmt)
	}
	res, err := e.execStatement(stmt)
	if err != nil {
		return nil, err
	}
	return &Stream{Result: res}, nil
}

// selectStream builds every SELECT, scoped (scope != nil) or not, as
// source → owner filter → projection | count. The source is a heap
// scan, with the owner filter and the projection as stages over it; or
// — behind a spatial predicate — a window's fetch cursor, which runs
// both itself (a candidate's owner test reads its index entry where it
// can, and a row is fetched once, for the projected columns); or a
// spatial_join's pair cursor (joinSelect). COUNT drains the filtered
// source without projecting or rendering it.
func (e *Engine) selectStream(s Select, scope *spatialtf.ClusterScope) (*Stream, error) {
	if s.From.Join != nil {
		return e.joinSelect(s, scope)
	}
	tab, err := e.db.Table(s.From.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Inner().Schema()
	n := len(s.Columns)
	if s.Star {
		n = len(schema)
	}
	cols := make([]int, n)
	outSchema := make([]storage.Column, n)
	reorders := false
	for k := range cols {
		i := k
		if !s.Star {
			if i, err = tab.Inner().ColumnIndex(s.Columns[k]); err != nil {
				return nil, err
			}
		}
		cols[k], outSchema[k] = i, schema[i]
		reorders = reorders || i < k
	}
	ownCol := -1
	if scope != nil {
		if ownCol, err = ownerColumn(s, schema); err != nil {
			return nil, err
		}
	}
	if s.Count {
		cols = nil
	}

	var src storage.Cursor
	if s.Where != nil {
		var owns func(x, y float64) bool
		if scope != nil {
			owns = scope.OwnsPoint
		}
		cands, rows, err := e.where(tab, s.Where, cols, owns, ownCol)
		if err != nil {
			return nil, err
		}
		src = &fetchCursor{rows: rows, cands: cands, nout: len(cols)}
	} else {
		// An unfiltered COUNT needs no rows: the table knows its size.
		if s.Count && scope == nil {
			return countStream(tab.Len()), nil
		}
		src = storage.NewCursor(tab.Inner())
		if scope != nil {
			src = &filterCursor{src: src, keep: func(row storage.Row) (bool, error) {
				return scope.OwnsMBR(geom.MBROf(row[ownCol].G)), nil
			}}
		}
		if !s.Count {
			src = &projectCursor{src: src, cols: cols, reorders: reorders}
		}
	}
	if s.Count {
		return drainCount(src)
	}
	return &Stream{Schema: outSchema, Cursor: src}, nil
}

// joinSelect is selectStream over TABLE(spatial_join(...)): the source
// is the join's pair cursor, which applies the owner filter itself
// (JoinOptions.Scope). Its (rid1, rid2) rows of rowid values — which
// render and encode as their page.slot text — come through in the
// caller's batch, narrowed or reordered in place for any other rid
// projection; with a 'keys=' hint the key1/key2 user-key columns are
// projected instead. COUNT is counted inside the join
// (DB.CountSpatialJoin): no pair becomes a row.
func (e *Engine) joinSelect(s Select, scope *spatialtf.ClusterScope) (*Stream, error) {
	call := s.From.Join
	if s.Where != nil {
		return nil, errors.New("sqlmini: WHERE on a spatial_join row source is not supported")
	}
	var wantCols []string
	var keys *joinKeys
	if !s.Count {
		var err error
		if wantCols, keys, err = e.joinProjection(s, call); err != nil {
			return nil, err
		}
	}
	idxA, err := e.indexFor(call.TableA, call.ColumnA, spatialtf.RTree)
	if err != nil {
		return nil, err
	}
	idxB, err := e.indexFor(call.TableB, call.ColumnB, spatialtf.RTree)
	if err != nil {
		return nil, err
	}
	opt := spatialtf.JoinOptions{
		Mask:     call.Mask,
		Distance: call.Distance,
		Parallel: call.Parallel,
		Algo:     call.Algo,
		Scope:    scope,
	}
	if s.Count {
		n, err := e.db.CountSpatialJoin(call.TableA, idxA.Name(), call.TableB, idxB.Name(), opt)
		if err != nil {
			return nil, err
		}
		return countStream(n), nil
	}
	jc, err := e.db.SpatialJoin(call.TableA, idxA.Name(), call.TableB, idxB.Name(), opt)
	if err != nil {
		return nil, err
	}
	outSchema := make([]storage.Column, len(wantCols))
	cols := make([]int, len(wantCols))
	reorders := false
	for k, c := range wantCols {
		outSchema[k] = storage.Column{Name: c, Type: storage.TString}
		if c == "rid2" || c == "key2" {
			cols[k] = 1
		}
		reorders = reorders || cols[k] < k
	}
	var cur storage.Cursor = &joinRows{jc: jc}
	switch {
	case keys != nil:
		cur = &keyedJoinCursor{jc: jc, cols: cols, keys: keys}
	case !slices.Equal(cols, []int{0, 1}):
		cur = &projectCursor{src: cur, cols: cols, reorders: reorders}
	}
	return &Stream{Schema: outSchema, Cursor: cur}, nil
}

// drainCount is COUNT(*) over a row cursor: it counts and closes it, a
// fetch batch at a time.
func drainCount(cur storage.Cursor) (*Stream, error) {
	defer cur.Close()
	n := 0
	var b storage.Batch
	for {
		b.Reset()
		if err := cur.NextBatch(&b, 0); err != nil {
			return nil, err
		}
		if len(b.Rows) == 0 {
			return countStream(n), cur.Close()
		}
		n += len(b.Rows)
	}
}

// countStream wraps a COUNT(*) outcome as an immediate result stream.
func countStream(n int) *Stream { return &Stream{Result: CountResult(n)} }

// CountResult renders a COUNT(*) outcome: one column, one row, the
// count in its decimal text.
func CountResult(n int) *Result {
	return &Result{Count: n, Columns: []string{"COUNT(*)"}, Rows: [][]string{{strconv.Itoa(n)}}}
}

// joinKeys resolves a 'keys=colA:colB' hint: the user-key columns the
// key1/key2 projection fetches through.
type joinKeys struct {
	tabA, tabB *spatialtf.Table
	colA, colB int
}

// appendKey fetches the key value of side col (0 for key1, 1 for key2)
// of a (rid1, rid2) pair row and appends its display string to dst.
// live is false, and dst as it was, when the side's row was deleted
// since the join met its index entry.
func (k *joinKeys) appendKey(dst []byte, pair storage.Row, col int) (out []byte, live bool, err error) {
	tab, cols, v := k.tabA, [1]int{k.colA}, [1]storage.Value{}
	if col == 1 {
		tab, cols[0] = k.tabB, k.colB
	}
	if live, err = tab.Inner().FetchColumns(pair[col].RowID(), cols[:], v[:]); !live || err != nil {
		return dst, false, err
	}
	return v[0].AppendString(dst), true, nil
}

// joinProjection validates the projected columns of a spatial_join
// SELECT and resolves the key fetcher when the call carries a 'keys='
// hint (the projection is then key1/key2 instead of rid1/rid2).
func (e *Engine) joinProjection(s Select, call *SpatialJoinCall) ([]string, *joinKeys, error) {
	var keys *joinKeys
	def := []string{"rid1", "rid2"}
	if call.KeyA != "" {
		def = []string{"key1", "key2"}
		tabA, err := e.db.Table(call.TableA)
		if err != nil {
			return nil, nil, err
		}
		tabB, err := e.db.Table(call.TableB)
		if err != nil {
			return nil, nil, err
		}
		colA, err := tabA.Inner().ColumnIndex(call.KeyA)
		if err != nil {
			return nil, nil, err
		}
		colB, err := tabB.Inner().ColumnIndex(call.KeyB)
		if err != nil {
			return nil, nil, err
		}
		keys = &joinKeys{tabA: tabA, tabB: tabB, colA: colA, colB: colB}
	}
	wantCols := s.Columns
	if s.Star || len(wantCols) == 0 {
		wantCols = def
	}
	for _, c := range wantCols {
		if c != def[0] && c != def[1] {
			return nil, nil, fmt.Errorf("sqlmini: this spatial_join exposes columns %s, %s; no %q", def[0], def[1], c)
		}
	}
	return wantCols, keys, nil
}

// projectCursor narrows the rows of a heap scan or a join's pair rows
// to the projected columns, a fetch batch at a time. Either source
// hands over rows in slots of their own (see storage.Batch), so a row
// is narrowed where it lies: no second batch, no copy of the values
// that stay.
type projectCursor struct {
	src  storage.Cursor
	cols []int
	// reorders is set when the projection moves a column left past one
	// still to be read; each row is then read from a copy in stage.
	// Otherwise shifting the columns down in order overwrites nothing
	// it has yet to read.
	reorders bool
	stage    storage.Row
	it       storage.RowIter
}

func (c *projectCursor) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

func (c *projectCursor) NextBatch(b *storage.Batch, max int) error {
	first := len(b.Rows)
	err := c.src.NextBatch(b, max)
	for r, row := range b.Rows[first:] {
		from := row
		if c.reorders {
			c.stage = append(c.stage[:0], row...)
			from = c.stage
		}
		out := row[:0]
		for _, i := range c.cols {
			out = append(out, from[i])
		}
		if len(out) < len(row) {
			clear(row[len(out):]) // let go of what the row no longer shows (a geometry)
		}
		b.Rows[first+r] = out
	}
	return err
}

func (c *projectCursor) Close() error { return c.src.Close() }

// fetchCursor streams the result rows of a spatial predicate (a window,
// or sdo_nn's ranked rows): the candidates the index pass kept when the
// statement started, each read when its batch is — a proven row for its
// projected columns only, a refined or owner-tested one once, its
// geometry tested and its projection taken from the same image. Rows
// are carved from the caller's batch. A row deleted in between is
// skipped, not an error: read committed per fetch, like a heap scan.
// Every SELECT behind a predicate — scoped or not, streamed, counted or
// materialised — reads its rows here.
type fetchCursor struct {
	rows  *extidx.Rows
	cands []extidx.Candidate
	// nout is the number of projected columns (0 for a count).
	nout int
	pos  int
	it   storage.RowIter
}

func (c *fetchCursor) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

func (c *fetchCursor) NextBatch(b *storage.Batch, max int) error {
	if max <= 0 {
		max = storage.DefaultBatch
	}
	want := min(max, len(c.cands)-c.pos)
	if want <= 0 {
		return nil
	}
	first := len(b.Rows)
	rows := b.Extend(want, c.rows.Width())
	n := 0
	for n < want && c.pos < len(c.cands) {
		ok, err := c.rows.Fetch(c.cands[c.pos], rows[n])
		c.pos++
		if err != nil {
			b.Rows = b.Rows[:first+n]
			return err
		}
		if ok {
			rows[n] = rows[n][:c.nout]
			n++
		}
	}
	b.Rows = b.Rows[:first+n]
	return nil
}

func (c *fetchCursor) Close() error {
	c.pos = len(c.cands)
	return nil
}

// joinRows is a join's pair cursor as a row source: the table
// function's (rid1, rid2) rows, filled straight into the caller's batch.
type joinRows struct {
	jc *spatialtf.JoinCursor
	it storage.RowIter
}

func (c *joinRows) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

func (c *joinRows) NextBatch(b *storage.Batch, max int) error { return c.jc.NextRows(b, max) }

func (c *joinRows) Close() error { return c.jc.Close() }

// keyedJoinCursor projects a join's pairs as the user keys of their
// rows (a 'keys=' hint), a fetch batch at a time: cols picks the side
// of each output column, 0 for key1 and 1 for key2.
type keyedJoinCursor struct {
	jc   *spatialtf.JoinCursor
	cols []int
	keys *joinKeys
	it   storage.RowIter

	// Per-batch scratch, reused: the join's pair rows, the text of
	// every cell of the batch back to back, and where each cell ends.
	pairs storage.Batch
	text  []byte
	ends  []int
}

func (c *keyedJoinCursor) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

// NextBatch renders one fetch batch of pairs as key cells. The cells'
// text is built in one byte slab and becomes one string per batch that
// every cell is cut from, so a batch costs one allocation here however
// many rows it has (the rows themselves are carved from b). A pair
// whose row was deleted since the join met its index entry is skipped —
// read committed per fetch, as fetchCursor does — by cutting its cells
// back off the slab; a batch whose every pair is skipped fetches the
// next. The key reads of a batch are one key_fetch span on the join's
// trace.
func (c *keyedJoinCursor) NextBatch(b *storage.Batch, max int) error {
	c.pairs.Reset()
	err := c.jc.NextRows(&c.pairs, max)
	if len(c.pairs.Rows) == 0 {
		return err
	}
	end := c.jc.Trace().Span(telemetry.StageKeyFetch)
	text, ends, rows := c.text[:0], c.ends[:0], 0
pair:
	for _, p := range c.pairs.Rows {
		mark, cells := len(text), len(ends)
		for _, col := range c.cols {
			var live bool
			var kerr error
			if text, live, kerr = c.keys.appendKey(text, p, col); kerr != nil {
				end()
				return kerr
			}
			if !live {
				text, ends = text[:mark], ends[:cells]
				continue pair
			}
			ends = append(ends, len(text))
		}
		rows++
	}
	end()
	c.text, c.ends = text, ends
	if rows == 0 && err == nil {
		return c.NextBatch(b, max)
	}
	cells := string(text)
	start, cell := 0, 0
	for _, out := range b.Extend(rows, len(c.cols)) {
		for k := range out {
			out[k] = storage.Str(cells[start:ends[cell]])
			start = ends[cell]
			cell++
		}
	}
	return err
}

func (c *keyedJoinCursor) Close() error { return c.jc.Close() }
