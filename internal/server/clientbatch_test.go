package server

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"spatialtf/internal/geom"
	"spatialtf/internal/sqlmini"
	"spatialtf/internal/storage"
	"spatialtf/internal/wire"
)

// listCursor yields rows, then ends or fails with err.
type listCursor struct {
	rows []storage.Row
	pos  int
	err  error
}

func (c *listCursor) Next() (storage.RowID, storage.Row, bool, error) {
	if c.pos == len(c.rows) {
		return storage.InvalidRowID, nil, false, c.err
	}
	c.pos++
	return storage.InvalidRowID, c.rows[c.pos-1], true, nil
}

func (c *listCursor) NextBatch(b *storage.Batch, max int) error {
	if max <= 0 {
		max = storage.DefaultBatch
	}
	n := min(max, len(c.rows)-c.pos)
	b.Rows = append(b.Rows, c.rows[c.pos:c.pos+n]...)
	c.pos += n
	if n < max {
		return c.err
	}
	return nil
}

func (c *listCursor) Close() error { return nil }

// listBackend streams its rows for every statement, then err.
type listBackend struct {
	rows []storage.Row
	err  error
}

var listSchema = []storage.Column{
	{Name: "id", Type: storage.TInt64},
	{Name: "name", Type: storage.TString},
	{Name: "geom", Type: storage.TGeometry},
}

func (b listBackend) NewSession() Session { return b }
func (b listBackend) Close() error        { return nil }
func (b listBackend) ExecuteStream(string) (*sqlmini.Stream, error) {
	return &sqlmini.Stream{Schema: listSchema, Cursor: &listCursor{rows: b.rows, err: b.err}}, nil
}

// listRows returns n rows whose string and geometry cells vary in size,
// so rows of one batch and of the next never share a shape: a cell left
// over from an earlier batch shows.
func listRows(t *testing.T, n int) []storage.Row {
	t.Helper()
	poly, err := geom.ParseWKT("POLYGON ((0 0, 40 0, 40 40, 20 55, 0 40, 0 0), (5 5, 10 5, 10 10, 5 5))")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, n)
	for i := range rows {
		g := geom.NewPoint(float64(i), -float64(i))
		if i%3 == 0 {
			g = poly
		}
		rows[i] = storage.Row{storage.Int(int64(i)), storage.Str(strings.Repeat("s", i%150) + fmt.Sprint(i)), storage.Geom(g)}
	}
	return rows
}

func renderRows(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, " | ")
	}
	return out
}

// TestClientDrainsAgree is the client's batch-ownership differential:
// one stream drained through Fetch at max 1, 7, 256 and 0 (rows read
// before the next call, as the contract allows) and through FetchInto
// into a reused batch and into one that keeps every row to the end
// yields the same rows and the same deferred error. Max 1 and 7 split the first batch, which arrives with the
// query reply; 600 rows span three server batches, and the error after
// 256 answers the first fetch after the reply.
func TestClientDrainsAgree(t *testing.T) {
	type drain struct {
		name string
		run  func(*wire.Cursor) ([]string, error)
	}
	var drains []drain
	for _, max := range []int{1, 7, 256, 0} {
		drains = append(drains, drain{fmt.Sprintf("Fetch(%d)", max), func(cur *wire.Cursor) ([]string, error) {
			var got []string
			for {
				rows, done, err := cur.Fetch(max)
				if err != nil {
					return got, err
				}
				if max > 0 && len(rows) > max {
					return got, fmt.Errorf("Fetch(%d) returned %d rows", max, len(rows))
				}
				got = append(got, renderRows(rows)...)
				if done {
					return got, nil
				}
			}
		}})
		for _, keep := range []bool{false, true} {
			drains = append(drains, drain{fmt.Sprintf("FetchInto(%d, keep=%v)", max, keep), func(cur *wire.Cursor) ([]string, error) {
				var b storage.Batch
				var got []string
				for {
					if !keep {
						b.Reset()
					}
					n := len(b.Rows)
					done, err := cur.FetchInto(&b, max)
					if err == nil && max > 0 && len(b.Rows)-n > max {
						err = fmt.Errorf("FetchInto(%d) appended %d rows", max, len(b.Rows)-n)
					}
					if err != nil && len(b.Rows) != n {
						err = errors.New("a failed FetchInto appended rows")
					}
					got = append(got, renderRows(b.Rows[n:])...)
					if keep && (err != nil || done) && !slices.Equal(renderRows(b.Rows), got) {
						err = errors.New("rows the batch held changed under later FetchInto calls")
					}
					if err != nil || done {
						return got, err
					}
				}
			}})
		}
	}

	for _, c := range []struct {
		name string
		n    int
		err  error
	}{
		{"600 rows", 600, nil},
		{"600 rows then an error", 600, errors.New("backend exploded")},
		{"3 rows", 3, nil},
		{"256 rows then an error", 256, errors.New("backend exploded")},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows := listRows(t, c.n)
			want := renderRows(rows)
			_, addr := startServer(t, listBackend{rows: rows, err: c.err}, Config{})
			cli := dial(t, addr)
			for _, d := range drains {
				res, err := cli.Query("SELECT * FROM list")
				if err != nil {
					t.Fatalf("%s: %v", d.name, err)
				}
				got, err := d.run(res.Cursor)
				if (err == nil) != (c.err == nil) || (err != nil && !strings.Contains(err.Error(), c.err.Error())) {
					t.Fatalf("%s: stream ended with %v, want %v", d.name, err, c.err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d rows differ from the %d served (first: %.60q)", d.name, len(got), len(want), firstDiff(got, want))
				}
				if err := res.Cursor.Close(); err != nil {
					t.Fatalf("%s: close: %v", d.name, err)
				}
			}
		})
	}
}

func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d: %s, want %s", i, got[i], want[i])
		}
	}
	return "lengths differ"
}
