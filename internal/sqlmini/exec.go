package sqlmini

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"spatialtf"
	"spatialtf/internal/extidx"
	"spatialtf/internal/geom"
	"spatialtf/internal/sjoin"
	"spatialtf/internal/storage"
)

// Engine executes parsed statements against a spatialtf database.
type Engine struct {
	db *spatialtf.DB
}

// NewEngine returns an engine over a fresh database.
func NewEngine() *Engine { return &Engine{db: spatialtf.Open()} }

// NewEngineOn returns an engine over an existing database (so programs
// can mix API and SQL access).
func NewEngineOn(db *spatialtf.DB) *Engine { return &Engine{db: db} }

// DB exposes the underlying database.
func (e *Engine) DB() *spatialtf.DB { return e.db }

// Result is the outcome of one statement.
type Result struct {
	// Columns and Rows are set for SELECT.
	Columns []string
	Rows    [][]string
	// Count is set for SELECT COUNT(*).
	Count int
	// Message summarises DDL/DML outcomes.
	Message string
}

// Execute parses and runs one statement, materialising a SELECT: it
// drains the cursor ExecuteStream serves, a fetch batch at a time, and
// renders every cell as text.
func (e *Engine) Execute(sql string) (*Result, error) {
	st, err := e.ExecuteStream(sql)
	if err != nil {
		return nil, err
	}
	if st.Result != nil {
		return st.Result, nil
	}
	defer st.Cursor.Close()
	res := &Result{Columns: make([]string, len(st.Schema))}
	for i, c := range st.Schema {
		res.Columns[i] = c.Name
	}
	var b storage.Batch
	for {
		b.Reset()
		if err := st.Cursor.NextBatch(&b, 0); err != nil {
			return nil, err
		}
		if len(b.Rows) == 0 {
			return res, st.Cursor.Close()
		}
		for _, row := range b.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			res.Rows = append(res.Rows, cells)
		}
	}
}

// execStatement runs one parsed DDL or DML statement.
func (e *Engine) execStatement(stmt Statement) (*Result, error) {
	switch s := stmt.(type) {
	case CreateTable:
		return e.execCreateTable(s)
	case Insert:
		return e.execInsert(s)
	case CreateIndex:
		return e.execCreateIndex(s)
	case Delete:
		return e.execDelete(s)
	case Update:
		return e.execUpdate(s)
	default:
		return nil, fmt.Errorf("sqlmini: unhandled statement %T", stmt)
	}
}

// whereIDs resolves the rowids a statement's WHERE clause selects
// (all rows when where is nil).
func (e *Engine) whereIDs(tab *spatialtf.Table, where *Predicate) ([]spatialtf.RowID, error) {
	if where == nil {
		var ids []spatialtf.RowID
		err := tab.Scan(func(id spatialtf.RowID, _ spatialtf.Row) bool {
			ids = append(ids, id)
			return true
		})
		return ids, err
	}
	cands, rows, err := e.where(tab, where, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	return rows.IDs(cands)
}

// where resolves a spatial WHERE clause through the index on its
// column: the candidates the index pass kept, and the reader that
// returns columns cols of their result rows. owns, when not nil, is a
// cluster scope's owner test of rows placed by column ownCol (see
// extidx.Window). sdo_nn ranks its k rows through an R-tree, and
// they are read as proven.
func (e *Engine) where(tab *spatialtf.Table, where *Predicate, cols []int, owns func(x, y float64) bool, ownCol int) ([]extidx.Candidate, *extidx.Rows, error) {
	q, err := spatialtf.ParseWKT(where.QueryWKT)
	if err != nil {
		return nil, nil, fmt.Errorf("sqlmini: query geometry: %w", err)
	}
	kind := spatialtf.IndexKind("")
	if where.Op == "nearest" {
		kind = spatialtf.RTree
	}
	ix, err := e.indexFor(tab.Name(), where.Column, kind)
	if err != nil {
		return nil, nil, err
	}
	var op sjoin.WindowOp
	switch where.Op {
	case "relate":
		if op.Mask, err = geom.ParseMask(where.Mask); err != nil {
			return nil, nil, err
		}
	case "withindistance":
		op.Within, op.Distance = true, where.Distance
	case "nearest":
		nbs, err := extidx.Nearest(ix.Inner(), tab.Inner(), where.Column, q, where.K)
		if err != nil {
			return nil, nil, err
		}
		cands := make([]extidx.Candidate, len(nbs))
		for i, nb := range nbs {
			cands[i].ID = nb.ID
		}
		return cands, extidx.ProvenRows(tab.Inner(), cols), nil
	default:
		return nil, nil, fmt.Errorf("sqlmini: unknown predicate %q", where.Op)
	}
	return extidx.Window(ix.Inner(), tab.Inner(), where.Column, q, op, cols, owns, ownCol)
}

func (e *Engine) execDelete(s Delete) (*Result, error) {
	tab, err := e.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	ids, err := e.whereIDs(tab, s.Where)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, id := range ids {
		err := tab.Delete(id)
		if errors.Is(err, storage.ErrRowDeleted) {
			continue // gone since the ids were resolved: read committed per row
		}
		if err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Message: fmt.Sprintf("%d rows deleted", n)}, nil
}

func (e *Engine) execUpdate(s Update) (*Result, error) {
	tab, err := e.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Inner().Schema()
	// Resolve SET targets and convert their literals once.
	type setTarget struct {
		col int
		val spatialtf.Value
	}
	var targets []setTarget
	for _, sc := range s.Sets {
		i, err := tab.Inner().ColumnIndex(sc.Column)
		if err != nil {
			return nil, err
		}
		v, err := literalValue(schema[i], sc.Value)
		if err != nil {
			return nil, err
		}
		targets = append(targets, setTarget{col: i, val: v})
	}
	ids, err := e.whereIDs(tab, s.Where)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, id := range ids {
		row, err := tab.Fetch(id)
		if err == nil {
			for _, t := range targets {
				row[t.col] = t.val
			}
			_, err = tab.Update(id, row...)
		}
		if errors.Is(err, storage.ErrRowDeleted) {
			continue // gone since the ids were resolved: read committed per row
		}
		if err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Message: fmt.Sprintf("%d rows updated", n)}, nil
}

// literalValue converts a parsed literal to a typed column value.
func literalValue(col spatialtf.Column, lit Literal) (spatialtf.Value, error) {
	switch col.Type {
	case spatialtf.TInt64:
		if !lit.IsNum {
			return spatialtf.Value{}, fmt.Errorf("sqlmini: column %q expects a number", col.Name)
		}
		return spatialtf.Int(int64(lit.Num)), nil
	case spatialtf.TFloat64:
		if !lit.IsNum {
			return spatialtf.Value{}, fmt.Errorf("sqlmini: column %q expects a number", col.Name)
		}
		return spatialtf.Float(lit.Num), nil
	case spatialtf.TString:
		if !lit.IsString {
			return spatialtf.Value{}, fmt.Errorf("sqlmini: column %q expects a string", col.Name)
		}
		return spatialtf.Str(lit.Str), nil
	case spatialtf.TGeometry:
		if !lit.IsString {
			return spatialtf.Value{}, fmt.Errorf("sqlmini: column %q expects a WKT string", col.Name)
		}
		g, err := spatialtf.ParseWKT(lit.Str)
		if err != nil {
			return spatialtf.Value{}, fmt.Errorf("sqlmini: column %q: %w", col.Name, err)
		}
		return spatialtf.Geom(g), nil
	default:
		return spatialtf.Value{}, fmt.Errorf("sqlmini: cannot assign to %v column %q", col.Type, col.Name)
	}
}

func colType(sqlType string) (spatialtf.Column, error) {
	switch sqlType {
	case "INT", "INTEGER", "NUMBER", "BIGINT":
		return spatialtf.Column{Type: spatialtf.TInt64}, nil
	case "FLOAT", "DOUBLE", "REAL":
		return spatialtf.Column{Type: spatialtf.TFloat64}, nil
	case "VARCHAR", "VARCHAR2", "TEXT", "STRING":
		return spatialtf.Column{Type: spatialtf.TString}, nil
	case "RAW", "BLOB":
		return spatialtf.Column{Type: spatialtf.TBytes}, nil
	case "GEOMETRY", "SDO_GEOMETRY":
		return spatialtf.Column{Type: spatialtf.TGeometry}, nil
	default:
		return spatialtf.Column{}, fmt.Errorf("sqlmini: unsupported column type %q", sqlType)
	}
}

func (e *Engine) execCreateTable(s CreateTable) (*Result, error) {
	cols := make([]spatialtf.Column, len(s.Columns))
	for i, c := range s.Columns {
		col, err := colType(c.Type)
		if err != nil {
			return nil, err
		}
		col.Name = c.Name
		cols[i] = col
	}
	if _, err := e.db.CreateTable(s.Name, cols); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("table %s created", s.Name)}, nil
}

func (e *Engine) execInsert(s Insert) (*Result, error) {
	tab, err := e.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Inner().Schema()
	if len(s.Values) != len(schema) {
		return nil, fmt.Errorf("sqlmini: %d values for %d columns", len(s.Values), len(schema))
	}
	row := make([]spatialtf.Value, len(schema))
	for i, col := range schema {
		v, err := literalValue(col, s.Values[i])
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	if _, err := tab.Insert(row...); err != nil {
		return nil, err
	}
	return &Result{Message: "1 row inserted"}, nil
}

func (e *Engine) execCreateIndex(s CreateIndex) (*Result, error) {
	var kind spatialtf.IndexKind
	switch s.Kind {
	case "RTREE", "RTREE_INDEX", "SPATIAL_INDEX":
		kind = spatialtf.RTree
	case "QUADTREE":
		kind = spatialtf.Quadtree
	default:
		return nil, fmt.Errorf("sqlmini: unsupported indextype %q", s.Kind)
	}
	opt := spatialtf.IndexOptions{Parallel: s.Parallel}
	var err error
	if v, ok := s.Params["fanout"]; ok {
		if opt.Fanout, err = strconv.Atoi(v); err != nil {
			return nil, fmt.Errorf("sqlmini: bad fanout %q", v)
		}
	}
	if v, ok := s.Params["level"]; ok {
		if opt.TilingLevel, err = strconv.Atoi(v); err != nil {
			return nil, fmt.Errorf("sqlmini: bad level %q", v)
		}
	}
	if kind == spatialtf.Quadtree {
		opt.Bounds = spatialtf.World
		if v, ok := s.Params["bounds"]; ok {
			if _, err := fmt.Sscanf(v, "%g,%g,%g,%g", &opt.Bounds.MinX, &opt.Bounds.MinY, &opt.Bounds.MaxX, &opt.Bounds.MaxY); err != nil {
				return nil, fmt.Errorf("sqlmini: bad bounds %q (want minx,miny,maxx,maxy)", v)
			}
		}
		if opt.TilingLevel == 0 {
			opt.TilingLevel = 8
		}
	}
	if _, err := e.db.CreateIndexOn(s.Name, s.Table, s.Column, kind, opt); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("index %s created", s.Name)}, nil
}

// indexFor finds the index a statement reads table.column through, of
// the wanted kind ("" = any), preferring R-trees (the join-capable
// kind); see DB.IndexOn.
func (e *Engine) indexFor(table, column string, kind spatialtf.IndexKind) (*spatialtf.Index, error) {
	ix, ok := e.db.IndexOn(table, column, kind)
	if !ok {
		return nil, fmt.Errorf("sqlmini: no spatial index on %s(%s); CREATE INDEX first", table, column)
	}
	return ix, nil
}

// Format renders a result as an aligned text table for the REPL.
func (r *Result) Format() string {
	if r.Message != "" {
		return r.Message + "\n"
	}
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, v := range row {
			if i < len(widths) && len(v) > widths[i] {
				if len(v) > 48 {
					widths[i] = 48
				} else {
					widths[i] = len(v)
				}
			}
		}
	}
	writeRow := func(cells []string) {
		for i, v := range cells {
			if len(v) > 48 {
				v = v[:45] + "..."
			}
			fmt.Fprintf(&b, "%-*s  ", widths[i], v)
		}
		b.WriteString("\n")
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(r.Rows))
	return b.String()
}
