// Package analysis implements spatiallint, a dependency-free static
// analyzer suite for this repository. The Go compiler cannot check the
// contracts the table-function machinery is built on — the paper's
// start–fetch–close cursor discipline (§3), R-trees staying pinned for
// the lifetime of a streaming join cursor, and locks that never wait on
// a peer — so this package checks four of them mechanically:
//
//	release        acquire ⇒ release on every path: an rtree.Tree.Pin()
//	               (defer/all-paths Unpin, or an escaping release func
//	               à la pinTrees), an opened cursor (Close), a pinned
//	               buffer-pool frame (Unpin), and a release/cancel func
//	               a function returns (called, deferred, or handed off
//	               by every caller), including error returns
//	lockdiscipline no sync.Mutex/RWMutex held across a channel
//	               operation, a cursor Fetch, a wire write, or a call
//	               that transitively blocks or re-acquires the same
//	               lock (path-sensitive on the CFG, interprocedural
//	               via module lock summaries); and lock acquisition
//	               order acyclic module-wide — a cycle in the global
//	               lock-order graph is a potential deadlock, reported
//	               with both paths
//	wireerr        no discarded error results from wire write/encode
//	               and bufio flush calls
//	floateq        no ==/!= on floating-point values outside the
//	               approved predicate helpers in internal/geom
//
// Some contracts are held elsewhere, not linted: allocations by
// testing.AllocsPerRun floor tests beside the hot paths (DESIGN.md
// §16); metric names by the registry, which panics on a malformed or
// duplicate name, and a test that registers every metric set in the
// module onto one registry; atomic fields by the typed sync/atomic API,
// which admits no plain access (DESIGN.md §15); goroutines by
// internal/leakcheck, which fails a package's tests when a goroutine
// they started outlives them; and decoded sizes by internal/allocbound,
// which bounds the bytes each decoder fuzz target allocates by its
// input's length.
//
// release and lockdiscipline run on the control-flow-graph engine in
// the cfg subpackage: per-function basic blocks plus a worklist
// dataflow solver, one graph per function scope shared through the
// Module, with per-function summaries carrying facts across calls —
// which functions return release funcs, which locks a callee takes or
// leaves held, which calls can block.
//
// Everything here is stdlib-only: packages load through `go list
// -deps -export` plus go/parser and go/types with an export-data
// importer (see load.go), not golang.org/x/tools.
//
// A finding can be silenced where the violation is deliberate with a
// directive comment
//
//	//spatiallint:ignore <rule> <reason>
//
// placed on the offending line, the line above it, or in the doc
// comment of the enclosing function (which silences the rule for the
// whole function). The reason is mandatory: a suppression without a
// justification is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diag is one analyzer finding.
type Diag struct {
	Rule    string         `json:"rule"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Pkg is one loaded, type-checked package as the analyzers see it.
type Pkg struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass is what one analyzer run over one package sees: the package
// itself plus the module-wide function summaries the interprocedural
// rules consult.
type Pass struct {
	Pkg *Pkg
	Mod *Module
}

// Analyzer is one rule of the suite.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) []Diag
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Release,
		LockDiscipline,
		WireErr,
		FloatEq,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the given analyzers to every package, filters findings
// silenced by //spatiallint:ignore directives, and returns the rest
// sorted by position. Malformed directives (unknown rule, missing
// reason) are reported as findings of the pseudo-rule "directive".
// Function summaries are computed once over all packages, so the
// interprocedural rules see the whole module regardless of which
// package they are visiting.
func Run(pkgs []*Pkg, analyzers []*Analyzer) []Diag {
	mod := BuildModule(pkgs)
	var out []Diag
	for _, pkg := range pkgs {
		sup, diags := collectSuppressions(pkg)
		out = append(out, diags...)
		pass := &Pass{Pkg: pkg, Mod: mod}
		for _, a := range analyzers {
			for _, d := range a.Run(pass) {
				if !sup.matches(d) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// diag builds a Diag at pos.
func diag(pkg *Pkg, rule string, pos token.Pos, format string, args ...any) Diag {
	p := pkg.Fset.Position(pos)
	return Diag{
		Rule:    rule,
		Pos:     p,
		File:    p.Filename,
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// --- suppression directives ---

const ignorePrefix = "//spatiallint:ignore"

var directiveRE = regexp.MustCompile(`^//spatiallint:ignore\s+(\S+)\s*(.*)$`)

// span is a file region in which a rule is silenced.
type span struct {
	file       string
	start, end int // inclusive line range
	rule       string
}

type suppressions struct{ spans []span }

func (s *suppressions) matches(d Diag) bool {
	for _, sp := range s.spans {
		if sp.rule == d.Rule && sp.file == d.File && d.Line >= sp.start && d.Line <= sp.end {
			return true
		}
	}
	return false
}

// collectSuppressions gathers ignore directives from pkg. A directive
// on its own line (or trailing a line) silences that line and the one
// below it; a directive inside a function's doc comment silences the
// whole function. Rule names validate against the full suite, not the
// analyzers enabled for this run: a directive for a disabled rule is
// inert, not malformed.
func collectSuppressions(pkg *Pkg) (*suppressions, []Diag) {
	var known = make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	sup := &suppressions{}
	var diags []Diag
	for _, f := range pkg.Files {
		// Doc-comment directives: map each to the enclosing declaration.
		docOf := make(map[*ast.Comment]ast.Node)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				docOf[c] = fd
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					diags = append(diags, diag(pkg, "directive", c.Pos(),
						"malformed directive %q: want //spatiallint:ignore <rule> <reason>", c.Text))
					continue
				}
				rule := m[1]
				if !known[rule] {
					diags = append(diags, diag(pkg, "directive", c.Pos(),
						"directive ignores unknown rule %q", rule))
					continue
				}
				if n, ok := docOf[c]; ok {
					start := pkg.Fset.Position(n.Pos())
					end := pkg.Fset.Position(n.End())
					sup.spans = append(sup.spans, span{file: start.Filename, start: start.Line, end: end.Line, rule: rule})
					continue
				}
				sup.spans = append(sup.spans, span{file: pos.Filename, start: pos.Line, end: pos.Line + 1, rule: rule})
			}
		}
	}
	return sup, diags
}

// --- shared AST/type helpers ---

// funcScopes returns every function body in f as an independent
// analysis scope: each FuncDecl, and each FuncLit not owned by one of
// the walked bodies... FuncLits are yielded as their own scopes because
// goroutine and deferred bodies do not inherit the lexical lock/pin
// state of their enclosing function at the point of definition.
func funcScopes(f *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, n.Body)
			}
		case *ast.FuncLit:
			out = append(out, n.Body)
		}
		return true
	})
	return out
}

// selectorObj resolves recv.Name (called or not) to its *types.Func.
func selectorObj(info *types.Info, sel *ast.SelectorExpr) (ast.Expr, *types.Func) {
	if s, ok := info.Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok {
			return sel.X, fn
		}
		return nil, nil
	}
	// Package-qualified function: pkg.Fn.
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		return sel.X, fn
	}
	return nil, nil
}

// pkgPathOf returns the package path of obj ("" for builtins).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// fromPkg reports whether fn is defined in a package whose import path
// is path or ends in "/"+path.
func fromPkg(fn *types.Func, path string) bool {
	p := pkgPathOf(fn)
	return p == path || strings.HasSuffix(p, "/"+path)
}

// exprString renders an expression as the analyzers' canonical receiver
// key (types.ExprString without the import churn).
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// lastResultIsError reports whether fn's final result is the builtin
// error type.
func lastResultIsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	return isErrorType(sig.Results().At(sig.Results().Len() - 1).Type())
}

// isErrorType reports whether t is the builtin error type.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// parentMap builds child→parent links for every node under root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
