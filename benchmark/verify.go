package main

import (
	"fmt"
	"slices"
	"strconv"

	"spatialtf"
	"spatialtf/internal/geom"
	"spatialtf/internal/idxbuild"
	"spatialtf/internal/sjoin"
)

// result is a statement's answer reduced to what the client logs.
type result struct {
	rows int
	sum  uint64
	// loose marks a nearest-neighbour answer with a tie at rank k: any
	// of the tied rows is right, so only the row count is compared.
	loose bool
}

// reference computes the answers the logged ones are compared with.
// None of it uses an index of the system under test: windows are full
// scans with the exact predicates, joins are sjoin.NestedLoop.
type reference struct {
	tables map[string]*tableData
	joins  map[string]func() (result, error)

	joinMemo map[string]result
	memo     map[*query]result
}

func newReference(tables ...*tableData) *reference {
	r := &reference{
		tables:   map[string]*tableData{},
		joins:    map[string]func() (result, error){},
		joinMemo: map[string]result{},
		memo:     map[*query]result{},
	}
	for _, t := range tables {
		r.tables[t.name] = t
	}
	return r
}

func idHash(id int) uint64 { return hashCells(strconv.Itoa(id)) }

// scan answers a window statement by testing every row.
func (t *tableData) scan(q *query) result {
	var res result
	switch q.kind {
	case qRelate:
		for i, g := range t.geoms {
			if geom.Relate(g, q.g, geom.MaskAnyInteract) {
				res.rows++
				res.sum += idHash(i)
			}
		}
	case qWithin:
		for i, g := range t.geoms {
			if geom.WithinDistance(g, q.g, q.d) {
				res.rows++
				res.sum += idHash(i)
			}
		}
	case qNearest:
		type cand struct {
			d  float64
			id int
		}
		cands := make([]cand, len(t.geoms))
		for i, g := range t.geoms {
			cands[i] = cand{geom.Distance(g, q.g), i}
		}
		slices.SortFunc(cands, func(a, b cand) int {
			if a.d != b.d {
				if a.d < b.d {
					return -1
				}
				return 1
			}
			return a.id - b.id
		})
		k := min(q.k, len(cands))
		res.rows = k
		res.loose = k < len(cands) && k > 0 && cands[k-1].d == cands[k].d
		for _, c := range cands[:k] {
			res.sum += idHash(c.id)
		}
	}
	return res
}

// nestedLoopJoin registers a join whose reference is sjoin.NestedLoop
// over the database's own heap tables and a tree built here.
func (r *reference) nestedLoopJoin(name string, db *spatialtf.DB, a, b string, dist float64) {
	r.joins[name] = func() (result, error) {
		srcA, err := joinSource(db, a)
		if err != nil {
			return result{}, err
		}
		srcB := srcA
		if b != a {
			if srcB, err = joinSource(db, b); err != nil {
				return result{}, err
			}
		}
		cfg := sjoin.DefaultConfig()
		cfg.Distance = dist
		cfg.GeomCacheBytes = -1
		pairs, err := sjoin.NestedLoop(srcA, srcB, cfg)
		if err != nil {
			return result{}, err
		}
		var res result
		for _, p := range pairs {
			res.rows++
			res.sum += hashCells(p.A.String(), p.B.String())
		}
		return res, nil
	}
}

// joinSource is a table of db as a join operand, with an R-tree built
// from the heap rows the same way CREATE INDEX builds one.
func joinSource(db *spatialtf.DB, table string) (sjoin.Source, error) {
	t, err := db.Table(table)
	if err != nil {
		return sjoin.Source{}, err
	}
	tree, _, err := idxbuild.CreateRtree(t.Inner(), "geom", 0, 2)
	if err != nil {
		return sjoin.Source{}, err
	}
	return sjoin.Source{Table: t.Inner(), Column: "geom", Tree: tree}, nil
}

func (r *reference) expect(q *query) (result, error) {
	switch q.kind {
	case qJoin, qJoinCount:
		res, ok := r.joinMemo[q.table]
		if !ok {
			fn := r.joins[q.table]
			if fn == nil {
				return result{}, fmt.Errorf("no reference for join %q", q.table)
			}
			var err error
			if res, err = fn(); err != nil {
				return result{}, err
			}
			r.joinMemo[q.table] = res
		}
		if q.kind == qJoinCount {
			return result{rows: 1, sum: hashCells(strconv.Itoa(res.rows))}, nil
		}
		return res, nil
	default:
		if res, ok := r.memo[q]; ok {
			return res, nil
		}
		t := r.tables[q.table]
		if t == nil {
			return result{}, fmt.Errorf("no reference table %q", q.table)
		}
		res := t.scan(q)
		r.memo[q] = res
		return res, nil
	}
}

// verdict is a verifier's finding.
type verdict struct {
	checked, wrong int
	notes          []string
	// extra carries numbers only the verifier can measure (reopen time,
	// space amplification); stamp carries facts for the environment stamp.
	extra map[string]float64
	stamp map[string]any
}

func (v *verdict) note(format string, args ...any) {
	if len(v.notes) < 5 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// check compares every logged answer with its reference.
func (r *reference) check(log *clientLog) (verdict, error) {
	var v verdict
	for _, a := range log.answers {
		q := &a.op.q
		want, err := r.expect(q)
		if err != nil {
			return v, err
		}
		v.checked++
		if a.rows != want.rows || (!want.loose && a.sum != want.sum) {
			v.wrong++
			v.note("kind %d on %s: got %d rows sum %x, want %d rows sum %x",
				q.kind, q.table, a.rows, a.sum, want.rows, want.sum)
		}
	}
	return v, nil
}
