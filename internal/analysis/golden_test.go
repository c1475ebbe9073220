package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden harness: each testdata/src/<rule>/ package annotates the
// lines where a finding is expected with
//
//	// want `regexp`
//
// comments (several per line allowed). The test runs the one analyzer
// over the fixture and demands an exact match both ways: every want has
// a diagnostic on its line matching the regexp, and every diagnostic is
// claimed by a want.

var (
	loadOnce sync.Once
	loadPkgs []*Pkg
	loadErr  error
	loader   *Loader
)

// sharedLoad loads and type-checks the whole module once per test
// binary; fixtures type-check against the same dependency universe.
func sharedLoad(t *testing.T) ([]*Pkg, *Loader) {
	t.Helper()
	loadOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			loadErr = err
			return
		}
		loadPkgs, loader, loadErr = Load(root)
	})
	if loadErr != nil {
		t.Fatalf("loading module packages: %v", loadErr)
	}
	return loadPkgs, loader
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above test working directory")
		}
		dir = parent
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile("// want `([^`]*)`")

// parseWants extracts the want comments from every file of the fixture.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &want{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// checkFixture runs analyzers over the fixture package in dir and
// compares the findings against its want comments.
func checkFixture(t *testing.T, dir string, analyzers []*Analyzer) {
	t.Helper()
	_, l := sharedLoad(t)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckDir(abs, "spatialtf/internal/analysis/"+filepath.ToSlash(dir))
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	diags := Run([]*Pkg{pkg}, analyzers)
	wants := parseWants(t, abs)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
diags:
	for _, d := range diags {
		for _, w := range wants {
			if !w.used && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.used = true
				continue diags
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// absorbed lists the fixture directories an analyzer runs besides the
// one named after it: release covers the per-kind fixtures of the four
// rules it replaced, and lockdiscipline the lock-order cycles it took
// over.
var absorbed = map[string][]string{
	"release":        {"pinpair", "cursorclose", "latchpair", "releasesummary"},
	"lockdiscipline": {"lockorder"},
}

// TestGolden runs every analyzer of the suite over its fixtures. An
// analyzer without a fixture directory, or a fixture directory that no
// analyzer runs, fails the test (suppress belongs to TestSuppressions).
func TestGolden(t *testing.T) {
	src := filepath.Join("testdata", "src")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	unrun := make(map[string]bool)
	for _, e := range ents {
		if e.IsDir() && e.Name() != "suppress" {
			unrun[e.Name()] = true
		}
	}
	for _, a := range Analyzers() {
		for _, dir := range append([]string{a.Name}, absorbed[a.Name]...) {
			if !unrun[dir] {
				t.Errorf("analyzer %s: no fixture directory %s", a.Name, filepath.Join(src, dir))
				continue
			}
			delete(unrun, dir)
			t.Run(dir, func(t *testing.T) {
				checkFixture(t, filepath.Join(src, dir), []*Analyzer{a})
			})
		}
	}
	for dir := range unrun {
		t.Errorf("fixture directory %s is run by no analyzer", filepath.Join(src, dir))
	}
}

// TestSuppressions checks the //spatiallint:ignore machinery: three
// well-formed placements (same line, line above, function doc comment)
// silence their findings, while a directive with no reason is itself
// reported and does not suppress anything.
func TestSuppressions(t *testing.T) {
	_, l := sharedLoad(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckDir(dir, "spatialtf/internal/analysis/testdata/src/suppress")
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	diags := Run([]*Pkg{pkg}, Analyzers())
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	// Exactly two findings survive: the malformed directive, and the
	// float comparison it consequently failed to suppress.
	if len(diags) != 2 || diags[0].Rule != "directive" || diags[1].Rule != "floateq" {
		t.Fatalf("got rules %v (diags %v), want [directive floateq]", rules, diags)
	}
	if !strings.Contains(diags[0].Message, "malformed directive") {
		t.Errorf("directive finding message = %q, want a malformed-directive report", diags[0].Message)
	}

	// Directives validate against the full suite even when the run
	// disables their rule: with floateq off, its suppressions are inert,
	// not "unknown rule" findings — only the malformed one remains.
	subset := Run([]*Pkg{pkg}, []*Analyzer{Release})
	if len(subset) != 1 || subset[0].Rule != "directive" ||
		!strings.Contains(subset[0].Message, "malformed directive") {
		t.Fatalf("disabled-rule run: got %v, want only the malformed directive", subset)
	}
}

// TestRepoIsClean runs the full suite over every package of the module:
// the tree must lint clean, so `make lint` stays a meaningful gate.
func TestRepoIsClean(t *testing.T) {
	pkgs, _ := sharedLoad(t)
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestDiagJSON pins the JSON shape the -json flag emits.
func TestDiagJSON(t *testing.T) {
	d := Diag{Rule: "floateq", File: "x.go", Line: 3, Col: 9, Message: "m"}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	const exp = `{"rule":"floateq","file":"x.go","line":3,"col":9,"message":"m"}`
	if string(b) != exp {
		t.Errorf("json = %s, want %s", b, exp)
	}
}
