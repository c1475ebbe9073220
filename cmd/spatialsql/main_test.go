package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestREPL drives the shell loop both modes share with scripted input
// and records, in order, the statements it runs and the meta commands
// it hands on.
func TestREPL(t *testing.T) {
	for _, c := range []struct {
		name, in string
		want     []string
	}{
		{
			name: "statement over several lines",
			in:   "SELECT id\n  FROM t\n  WHERE id < 3;\n",
			want: []string{"run: SELECT id\n  FROM t\n  WHERE id < 3"},
		},
		{
			name: "meta command between statements",
			in:   "SELECT 1;\n  \\batch 7\nSELECT 2;\n",
			want: []string{"run: SELECT 1", `meta: \batch 7`, "run: SELECT 2"},
		},
		{
			name: "a backslash inside a statement is not a meta command",
			in:   "SELECT a\n\\x;\n",
			want: []string{"run: SELECT a\n\\x"},
		},
		{
			name: "quit stops the loop",
			in:   "SELECT 1;\n\\q\nSELECT 2;\n",
			want: []string{"run: SELECT 1", `meta: \q`},
		},
		{
			name: "trailing statement without a semicolon",
			in:   "SELECT 1;\nSELECT 2\n  FROM t",
			want: []string{"run: SELECT 1", "run: SELECT 2\n  FROM t"},
		},
		{
			name: "empty statements are skipped",
			in:   ";\n  ;\n\n",
			want: nil,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got []string
			repl(strings.NewReader(c.in), false,
				func(sql string) { got = append(got, "run: "+sql) },
				func(cmd string) bool {
					got = append(got, "meta: "+cmd)
					return cmd != `\q`
				})
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("got  %q\nwant %q", got, c.want)
			}
		})
	}
}
