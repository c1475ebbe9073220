package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"os"
	"strings"
	"testing"

	"spatialtf/internal/analysis"
)

// repoRoot is the module root relative to this package directory; the
// dump helpers take a chdir so the tests never mutate the process cwd.
const repoRoot = "../.."

// capture runs fn with os.Stdout redirected to a pipe and returns what
// it printed. The dump helpers write straight to os.Stdout (they feed
// `spatiallint -… | dot`), so the tests intercept at the fd level.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.String()
	}()
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	return <-done
}

func TestListRules(t *testing.T) {
	var buf bytes.Buffer
	listRules(&buf)
	out := buf.String()
	for _, a := range analysis.Analyzers() {
		if !strings.Contains(out, a.Name) || !strings.Contains(out, a.Doc) {
			t.Errorf("rule %s missing from -rules output:\n%s", a.Name, out)
		}
	}
	if got, want := strings.Count(out, "\n"), len(analysis.Analyzers()); got != want {
		t.Errorf("-rules printed %d lines, want %d", got, want)
	}
}

func TestDumpCFG(t *testing.T) {
	var status int
	out := capture(t, func() {
		status = dumpCFG(repoRoot, "Grid.ColOf", []string{"./internal/sjoin"})
	})
	if status != 0 {
		t.Fatalf("dumpCFG status %d", status)
	}
	for _, want := range []string{"digraph", "Grid.ColOf", "entry", "exit", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("-cfg-debug output missing %q:\n%s", want, out)
		}
	}
}

func TestDumpCFGUnknownFunc(t *testing.T) {
	var status int
	capture(t, func() {
		status = dumpCFG(repoRoot, "NoSuchFunction", []string{"./internal/geom"})
	})
	if status != 2 {
		t.Errorf("dumpCFG for unknown function: status %d, want 2", status)
	}
}

// TestUnknownRuleFailsLoudly: disabling a rule the suite does not have
// — including the names of rules since removed or folded into another —
// is a usage error, not a silent no-op, so a stale -disable in a script
// surfaces at once.
func TestUnknownRuleFailsLoudly(t *testing.T) {
	for _, name := range []string{"lockorder", "atomicmix", "metricname", "pinpair", "goleak", "taintsize", "nosuchrule"} {
		var stderr bytes.Buffer
		if status := run([]string{"-disable", name}, &stderr); status != 2 {
			t.Errorf("-disable %s: exit status %d, want 2", name, status)
		}
		want := fmt.Sprintf("unknown analyzer %q (try -rules)", name)
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("-disable %s: stderr %q, want it to contain %q", name, stderr.String(), want)
		}
	}
}

func TestDeclName(t *testing.T) {
	cases := []struct {
		recv string
		want string
	}{
		{"", "F"},
		{"(t T)", "T.F"},
		{"(t *T)", "T.F"},
	}
	for _, c := range cases {
		fd := &ast.FuncDecl{Name: ast.NewIdent("F")}
		switch c.recv {
		case "(t T)":
			fd.Recv = &ast.FieldList{List: []*ast.Field{{Type: ast.NewIdent("T")}}}
		case "(t *T)":
			fd.Recv = &ast.FieldList{List: []*ast.Field{{Type: &ast.StarExpr{X: ast.NewIdent("T")}}}}
		}
		if got := declName(fd); got != c.want {
			t.Errorf("declName(recv %q) = %q, want %q", c.recv, got, c.want)
		}
	}
}
