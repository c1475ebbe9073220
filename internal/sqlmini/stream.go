package sqlmini

import (
	"errors"
	"fmt"

	"spatialtf"
	"spatialtf/internal/storage"
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
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if s, ok := stmt.(Select); ok && !s.Count {
		if s.From.Join != nil {
			return e.streamJoinSelect(s)
		}
		return e.streamTableSelect(s)
	}
	res, err := e.execStatement(stmt)
	if err != nil {
		return nil, err
	}
	return &Stream{Result: res}, nil
}

// streamTableSelect builds a cursor over a base-table SELECT. A plain
// scan streams straight off the heap; a spatial predicate resolves the
// matching rowids through the index first (bounded by the result's id
// count, not its row payload) and fetches rows lazily.
func (e *Engine) streamTableSelect(s Select) (*Stream, error) {
	tab, err := e.db.Table(s.From.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Inner().Schema()
	var colIdx []int
	var outSchema []storage.Column
	if s.Star {
		for i, c := range schema {
			colIdx = append(colIdx, i)
			outSchema = append(outSchema, c)
		}
	} else {
		for _, want := range s.Columns {
			i, err := tab.Inner().ColumnIndex(want)
			if err != nil {
				return nil, err
			}
			colIdx = append(colIdx, i)
			outSchema = append(outSchema, schema[i])
		}
	}
	if s.Where == nil {
		return &Stream{
			Schema: outSchema,
			Cursor: &projectCursor{src: storage.NewCursor(tab.Inner()), cols: colIdx},
		}, nil
	}
	ids, err := e.whereIDs(s.From.Table, tab, s.Where)
	if err != nil {
		return nil, err
	}
	return &Stream{
		Schema: outSchema,
		Cursor: &fetchCursor{tab: tab, ids: ids, cols: colIdx},
	}, nil
}

// streamJoinSelect builds a cursor over TABLE(spatial_join(...)). The
// rid1/rid2 rowids are projected as their page.slot text form, matching
// the local REPL rendering; with a 'keys=' hint the key1/key2 user-key
// columns are projected instead.
func (e *Engine) streamJoinSelect(s Select) (*Stream, error) {
	return e.streamJoinSelectScoped(s, nil)
}

func (e *Engine) streamJoinSelectScoped(s Select, scope *spatialtf.ClusterScope) (*Stream, error) {
	call := s.From.Join
	if s.Where != nil {
		return nil, errJoinWhere
	}
	wantCols, keys, err := e.joinProjection(s, call)
	if err != nil {
		return nil, err
	}
	cur, err := e.openJoin(call, scope)
	if err != nil {
		return nil, err
	}
	outSchema := make([]storage.Column, len(wantCols))
	for i, c := range wantCols {
		outSchema[i] = storage.Column{Name: c, Type: storage.TString}
	}
	return &Stream{
		Schema: outSchema,
		Cursor: &joinCursorAdapter{jc: cur, cols: wantCols, keys: keys},
	}, nil
}

var errJoinWhere = errors.New("sqlmini: WHERE on a spatial_join row source is not supported")

// openJoin starts the spatial_join a FROM clause calls, restricted to
// scope when that is not nil.
func (e *Engine) openJoin(call *SpatialJoinCall, scope *spatialtf.ClusterScope) (*spatialtf.JoinCursor, error) {
	idxA, err := e.indexFor(call.TableA, call.ColumnA, spatialtf.RTree)
	if err != nil {
		return nil, err
	}
	idxB, err := e.indexFor(call.TableB, call.ColumnB, spatialtf.RTree)
	if err != nil {
		return nil, err
	}
	return e.db.SpatialJoin(call.TableA, idxA, call.TableB, idxB, spatialtf.JoinOptions{
		Mask:     call.Mask,
		Distance: call.Distance,
		Parallel: call.Parallel,
		Algo:     call.Algo,
		Scope:    scope,
	})
}

// joinCount is COUNT(*) over a spatial_join: it drains the join's pair
// batches, which needs the full stream but never the rendered rows.
func (e *Engine) joinCount(s Select, scope *spatialtf.ClusterScope) (*Stream, error) {
	if s.Where != nil {
		return nil, errJoinWhere
	}
	jc, err := e.openJoin(s.From.Join, scope)
	if err != nil {
		return nil, err
	}
	defer jc.Close()
	n := 0
	var pairs []spatialtf.Pair
	for {
		if pairs, err = jc.NextBatch(pairs[:0], 0); err != nil {
			return nil, err
		}
		if len(pairs) == 0 {
			return countStream(n), jc.Close()
		}
		n += len(pairs)
	}
}

// joinKeys resolves a 'keys=colA:colB' hint: the user-key columns the
// key1/key2 projection fetches through.
type joinKeys struct {
	tabA, tabB *spatialtf.Table
	colA, colB int
}

// appendKey fetches the key value of one pair side and appends its
// display string to dst.
func (k *joinKeys) appendKey(dst []byte, p spatialtf.Pair, col string) ([]byte, error) {
	var v spatialtf.Value
	var err error
	if col == "key1" {
		v, err = k.tabA.Inner().FetchColumn(p.A, k.colA)
	} else {
		v, err = k.tabB.Inner().FetchColumn(p.B, k.colB)
	}
	if err != nil {
		return dst, err
	}
	return v.AppendString(dst), nil
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

// projectCursor narrows a row cursor to the projected columns, a fetch
// batch at a time.
type projectCursor struct {
	src  storage.Cursor
	cols []int
	in   storage.Batch // the upstream batch being projected, reused
	it   storage.RowIter
}

func (c *projectCursor) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

func (c *projectCursor) NextBatch(b *storage.Batch, max int) error {
	c.in.Reset()
	err := c.src.NextBatch(&c.in, max)
	for r, out := range b.Extend(len(c.in.Rows), len(c.cols)) {
		for k, i := range c.cols {
			out[k] = c.in.Rows[r][i]
		}
	}
	return err
}

func (c *projectCursor) Close() error { return c.src.Close() }

// fetchCursor lazily fetches and projects the rows of a resolved rowid
// list (the output of a spatial WHERE predicate). The list was resolved
// when the statement started and each fetch reads the table as it is
// now, so a row deleted in between is skipped, not an error: read
// committed per fetch, like a heap scan.
type fetchCursor struct {
	tab  *spatialtf.Table
	ids  []spatialtf.RowID
	cols []int
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
	first := len(b.Rows)
	out := b.Extend(min(max, len(c.ids)-c.pos), len(c.cols))
	n := 0
	// Rows deleted since the ids were resolved (or an error) leave
	// reserved rows unfilled.
	defer func() { b.Rows = b.Rows[:first+n] }()
	for n < len(out) && c.pos < len(c.ids) {
		row, err := c.tab.Fetch(c.ids[c.pos])
		c.pos++
		if errors.Is(err, storage.ErrRowDeleted) {
			continue
		}
		if err != nil {
			return err
		}
		for k, i := range c.cols {
			out[n][k] = row[i]
		}
		n++
	}
	return nil
}

func (c *fetchCursor) Close() error {
	c.pos = len(c.ids)
	return nil
}

// joinCursorAdapter renders a spatial-join pair stream as rows of the
// projected rid (or, with a 'keys=' hint, user-key) columns, a fetch
// batch at a time.
type joinCursorAdapter struct {
	jc   *spatialtf.JoinCursor
	cols []string
	keys *joinKeys // nil when projecting rowids
	it   storage.RowIter

	// Per-batch scratch, reused: the pairs being rendered, the text of
	// every cell of the batch back to back, and where each cell ends.
	pairs []spatialtf.Pair
	text  []byte
	ends  []int
}

func (c *joinCursorAdapter) Next() (storage.RowID, storage.Row, bool, error) {
	return c.it.Next(c)
}

// NextBatch renders one fetch batch of pairs. The cells' text is built
// in one byte slab and becomes one string per batch that every cell is
// cut from, so a batch costs one allocation here however many rows it
// has (the rows themselves are carved from b).
func (c *joinCursorAdapter) NextBatch(b *storage.Batch, max int) error {
	pairs, err := c.jc.NextBatch(c.pairs[:0], max)
	c.pairs = pairs
	if len(pairs) == 0 {
		return err
	}
	text, ends := c.text[:0], c.ends[:0]
	for _, p := range pairs {
		for _, col := range c.cols {
			switch {
			case c.keys != nil:
				var kerr error
				//spatiallint:ignore hotalloc a keyed projection fetches and decodes a user column per cell
				if text, kerr = c.keys.appendKey(text, p, col); kerr != nil {
					return kerr
				}
			case col == "rid1":
				text = p.A.AppendString(text)
			default:
				text = p.B.AppendString(text)
			}
			ends = append(ends, len(text))
		}
	}
	c.text, c.ends = text, ends
	//spatiallint:ignore hotalloc the batch's one string, which every cell is cut from
	cells := string(text)
	start, cell := 0, 0
	//spatiallint:ignore hotalloc grows a fresh batch to the fetch size; a reused one has the room
	for _, out := range b.Extend(len(pairs), len(c.cols)) {
		for k := range out {
			out[k] = storage.Str(cells[start:ends[cell]])
			start = ends[cell]
			cell++
		}
	}
	return err
}

func (c *joinCursorAdapter) Close() error { return c.jc.Close() }
