package sqlmini

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"spatialtf/internal/sjoin"
)

// Parse parses one SQL statement (without a trailing semicolon).
func Parse(sql string) (Statement, error) {
	toks, err := lexAll(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sqlmini: trailing input at %q", p.peek().text)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

// acceptKeyword consumes the next token if it is the given keyword.
func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlmini: expected %s, found %q", strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

func (p *parser) expectPunct(c string) error {
	t := p.peek()
	if t.kind == tokPunct && t.text == c {
		p.advance()
		return nil
	}
	return fmt.Errorf("sqlmini: expected %q, found %q", c, t.text)
}

func (p *parser) acceptPunct(c string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == c {
		p.advance()
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqlmini: expected identifier, found %q", t.text)
	}
	p.advance()
	return strings.ToLower(t.text), nil
}

func (p *parser) stringLit() (string, error) {
	t := p.peek()
	if t.kind != tokString {
		return "", fmt.Errorf("sqlmini: expected string literal, found %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) number() (float64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sqlmini: expected number, found %q", t.text)
	}
	p.advance()
	return strconv.ParseFloat(t.text, 64)
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.acceptKeyword("create"):
		if p.acceptKeyword("table") {
			return p.createTable()
		}
		if p.acceptKeyword("index") {
			return p.createIndex()
		}
		return nil, fmt.Errorf("sqlmini: expected TABLE or INDEX after CREATE")
	case p.acceptKeyword("insert"):
		return p.insert()
	case p.acceptKeyword("select"):
		return p.selectStmt()
	case p.acceptKeyword("delete"):
		return p.deleteStmt()
	case p.acceptKeyword("update"):
		return p.updateStmt()
	default:
		return nil, fmt.Errorf("sqlmini: unsupported statement starting with %q", p.peek().text)
	}
}

func (p *parser) deleteStmt() (Statement, error) {
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := Delete{Table: table}
	if p.acceptKeyword("where") {
		pred, err := p.predicate()
		if err != nil {
			return nil, err
		}
		d.Where = pred
	}
	return d, nil
}

func (p *parser) updateStmt() (Statement, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	u := Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		t := p.peek()
		var lit Literal
		switch t.kind {
		case tokString:
			p.advance()
			lit = Literal{IsString: true, Str: t.text}
		case tokNumber:
			n, err := p.number()
			if err != nil {
				return nil, err
			}
			lit = Literal{IsNum: true, Num: n}
		default:
			return nil, fmt.Errorf("sqlmini: expected literal after %s =, found %q", col, t.text)
		}
		u.Sets = append(u.Sets, SetClause{Column: col, Value: lit})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("where") {
		pred, err := p.predicate()
		if err != nil {
			return nil, err
		}
		u.Where = pred
	}
	return u, nil
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		cn, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, ColumnDef{Name: cn, Type: strings.ToUpper(ct)})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return CreateTable{Name: name, Columns: cols}, nil
}

func (p *parser) insert() (Statement, error) {
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var vals []Literal
	for {
		t := p.peek()
		switch t.kind {
		case tokString:
			p.advance()
			vals = append(vals, Literal{IsString: true, Str: t.text})
		case tokNumber:
			n, err := p.number()
			if err != nil {
				return nil, err
			}
			vals = append(vals, Literal{IsNum: true, Num: n})
		default:
			return nil, fmt.Errorf("sqlmini: expected literal, found %q", t.text)
		}
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return Insert{Table: table, Values: vals}, nil
}

func (p *parser) createIndex() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("indextype"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("is"); err != nil {
		return nil, err
	}
	kind, err := p.ident()
	if err != nil {
		return nil, err
	}
	ci := CreateIndex{Name: name, Table: table, Column: col, Kind: strings.ToUpper(kind), Params: map[string]string{}}
	for {
		switch {
		case p.acceptKeyword("parameters"):
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			raw, err := p.stringLit()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			for _, kv := range strings.Fields(raw) {
				parts := strings.SplitN(kv, "=", 2)
				if len(parts) != 2 {
					return nil, fmt.Errorf("sqlmini: bad parameter %q (want key=value)", kv)
				}
				ci.Params[strings.ToLower(parts[0])] = parts[1]
			}
		case p.acceptKeyword("parallel"):
			n, err := p.number()
			if err != nil {
				return nil, err
			}
			ci.Parallel = int(n)
		default:
			return ci, nil
		}
	}
}

func (p *parser) selectStmt() (Statement, error) {
	var sel Select
	switch {
	case p.acceptKeyword("count"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectPunct("*"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		sel.Count = true
	case p.acceptPunct("*"):
		sel.Star = true
	default:
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			sel.Columns = append(sel.Columns, c)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("table") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		call, err := p.spatialJoinCall()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		sel.From = FromClause{Join: call}
	} else {
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		sel.From = FromClause{Table: table}
		// Optional alias, ignored.
		if p.peek().kind == tokIdent && !isKeyword(p.peek().text) {
			p.advance()
		}
	}
	if p.acceptKeyword("where") {
		pred, err := p.predicate()
		if err != nil {
			return nil, err
		}
		sel.Where = pred
	}
	return sel, nil
}

func isKeyword(s string) bool {
	switch strings.ToLower(s) {
	case "where", "from", "select", "table", "and", "or", "order", "group":
		return true
	}
	return false
}

// spatialJoinCall parses
//
//	SPATIAL_JOIN('t1','c1','t2','c2','mask'|'distance=5'[,'algo=grid'][, parallel])
func (p *parser) spatialJoinCall() (*SpatialJoinCall, error) {
	fn, err := p.ident()
	if err != nil {
		return nil, err
	}
	if fn != "spatial_join" {
		return nil, fmt.Errorf("sqlmini: unsupported table function %q", fn)
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []string
	for {
		s, err := p.stringLit()
		if err != nil {
			// A trailing numeric degree-of-parallelism argument.
			if n, nerr := p.number(); nerr == nil {
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return buildJoinCall(args, int(n))
			}
			return nil, err
		}
		args = append(args, s)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return buildJoinCall(args, 0)
}

// parseDistance parses the number of a 'distance=' spec, which must be
// finite and non-negative: an infinite or NaN distance would reach the
// cluster router's grid arithmetic and the index's window expansion.
func parseDistance(s string) (float64, bool) {
	d, err := strconv.ParseFloat(s, 64)
	return d, err == nil && d >= 0 && !math.IsInf(d, 1)
}

func buildJoinCall(args []string, parallel int) (*SpatialJoinCall, error) {
	if len(args) < 5 || len(args) > 7 {
		return nil, fmt.Errorf("sqlmini: spatial_join expects 5 to 7 string arguments, got %d", len(args))
	}
	call := &SpatialJoinCall{
		TableA: strings.ToLower(args[0]), ColumnA: strings.ToLower(args[1]),
		TableB: strings.ToLower(args[2]), ColumnB: strings.ToLower(args[3]),
		Parallel: parallel,
	}
	spec := strings.ToLower(strings.TrimSpace(args[4]))
	if strings.HasPrefix(spec, "distance=") {
		d, ok := parseDistance(strings.TrimPrefix(spec, "distance="))
		if !ok {
			return nil, fmt.Errorf("sqlmini: bad distance in %q", args[4])
		}
		call.Distance = d
		call.Mask = "anyinteract"
	} else {
		call.Mask = spec
	}
	// Optional hints, in any order: 'algo=...' and 'keys=colA:colB'.
	for _, raw := range args[5:] {
		hint := strings.ToLower(strings.TrimSpace(raw))
		switch {
		case strings.HasPrefix(hint, "algo="):
			if call.Algo != "" {
				return nil, fmt.Errorf("sqlmini: duplicate 'algo=' hint")
			}
			// The hint's vocabulary is sjoin.ParseAlgo's, except that a
			// hint must name an algorithm ("" is "no hint" there).
			call.Algo = strings.TrimPrefix(hint, "algo=")
			if call.Algo == "" {
				return nil, fmt.Errorf("sqlmini: empty 'algo=' hint")
			}
			if _, err := sjoin.ParseAlgo(call.Algo); err != nil {
				return nil, fmt.Errorf("sqlmini: %w", err)
			}
		case strings.HasPrefix(hint, "keys="):
			if call.KeyA != "" {
				return nil, fmt.Errorf("sqlmini: duplicate 'keys=' hint")
			}
			a, b, ok := strings.Cut(strings.TrimPrefix(hint, "keys="), ":")
			if !ok || a == "" || b == "" {
				return nil, fmt.Errorf("sqlmini: 'keys=' hint wants keys=colA:colB, got %q", raw)
			}
			call.KeyA, call.KeyB = a, b
		default:
			return nil, fmt.Errorf("sqlmini: spatial_join hint must be 'algo=...' or 'keys=...', got %q", raw)
		}
	}
	return call, nil
}

// predicate parses the two operator forms.
func (p *parser) predicate() (*Predicate, error) {
	op, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch op {
	case "sdo_relate", "sdo_within_distance", "sdo_nn":
	default:
		return nil, fmt.Errorf("sqlmini: unsupported predicate %q", op)
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	// Allow alias.col.
	if p.acceptPunct(".") {
		col, err = p.ident()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	wkt, err := p.stringLit()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	spec, err := p.stringLit()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	// Optional "= 'TRUE'".
	if p.acceptPunct("=") {
		v, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		if !strings.EqualFold(v, "true") {
			return nil, fmt.Errorf("sqlmini: operators can only be compared to 'TRUE'")
		}
	}
	pred := &Predicate{Column: col, QueryWKT: wkt}
	spec = strings.ToLower(strings.TrimSpace(spec))
	switch op {
	case "sdo_relate":
		pred.Op = "relate"
		pred.Mask = strings.TrimPrefix(spec, "mask=")
	case "sdo_within_distance":
		pred.Op = "withindistance"
		d, ok := parseDistance(strings.TrimPrefix(spec, "distance="))
		if !ok {
			return nil, fmt.Errorf("sqlmini: bad distance spec %q", spec)
		}
		pred.Distance = d
	case "sdo_nn":
		pred.Op = "nearest"
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "k="))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("sqlmini: bad k spec %q (want k=N)", spec)
		}
		pred.K = k
	}
	return pred, nil
}
