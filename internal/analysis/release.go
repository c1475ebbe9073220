package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"

	"spatialtf/internal/analysis/cfg"
)

// Release enforces "acquire ⇒ release on every path" for the four
// acquisitions the table-function machinery is built on (DESIGN.md
// §10–§11):
//
//   - a rtree.Tree.Pin() blocks all DML on the index until the matching
//     Unpin, so a pin that leaks deadlocks writers forever;
//   - a cursor (the paper's start–fetch–close contract, §3) must be
//     Closed, or Collected;
//   - a *pager.Frame from Space.Pin, Allocate or any helper holds a
//     buffer-pool slot until Unpin; enough leaks and every Pin fails
//     with ErrPoolExhausted;
//   - a release func returned by a provider (pinTrees in join.go hands
//     its unpin closure to the join cursor's Close) must be called.
//
// Handing the resource off — returning, storing or passing it,
// capturing it in a closure, or taking its release as a method value —
// transfers the obligation with it. Providers are discovered by the
// module summary pass (FuncSummary.ReleaseResults): a function
// qualifies when every return site yields nil, a closure or method
// value that performs a release, or another provider's result.
//
// The rule is one forward dataflow per function scope over the shared
// CFG. The fact is the set of live obligations on the path: pins keyed
// by their receiver expression, everything else by its local. A
// deferred Unpin discharges the receiver's pins at every exit, even
// one registered before the Pin. Three paths are excused: the open's
// own `err != nil` edge while the resource is still unused, a branch
// on which the local is known nil (a nil comparison is not a use), and
// paths that end in panic — the resource dies with the process. A pin
// is reported at its Pin, naming the first return that leaks it; a
// local at every return that leaks it; a cursor or frame that is never
// released nor handed off anywhere, and a release func discarded
// outright, at the acquisition.
var Release = &Analyzer{
	Name: "release",
	Doc:  "a tree Pin, opened cursor, pinned frame or returned release func must be released or handed off on every path",
	Run:  runRelease,
}

// localKind is one kind of tracked local: the methods that release it
// and the two findings' formats (neverMsg takes the local's name and
// is empty when the kind has no such finding; leakMsg takes the name
// and the acquisition line).
type localKind struct {
	closing  map[string]bool
	neverMsg string
	leakMsg  string
}

var (
	cursorKind = &localKind{
		closing:  map[string]bool{"Close": true, "Collect": true}, // JoinCursor.Collect closes the cursor
		neverMsg: "cursor %q is opened here but never Closed and never escapes; the cursor contract requires Close on every path",
		leakMsg:  "return leaks cursor %q (opened at line %d): Close it on this path or use defer",
	}
	frameKind = &localKind{
		closing:  map[string]bool{"Unpin": true},
		neverMsg: "frame %q is pinned here but never Unpinned and never escapes; the pin discipline requires Unpin on every path",
		leakMsg:  "return leaks pinned frame %q (pinned at line %d): Unpin it on this path or use defer",
	}
	funcKind = &localKind{
		leakMsg: "return leaks release func %q (obtained at line %d): call it, defer it, or hand it off on this path",
	}
)

// tracked is one acquired local and the error variable (if any) the
// acquiring assignment produced.
type tracked struct {
	obj    types.Object
	kind   *localKind
	errObj types.Object
}

// obKey names one obligation: a pinned tree's receiver expression, or
// a tracked local.
type obKey struct {
	recv string
	obj  types.Object
}

// obligation is a live obligation on one path: where it was acquired,
// and whether the resource has been used since.
type obligation struct {
	at   token.Pos
	used bool
}

// releaseFact is the dataflow fact. Deferred Unpins are kept apart from
// the live set because a defer discharges every pin of its receiver on
// the path regardless of registration order — before the Pin, or once
// before a loop that re-pins.
type releaseFact struct {
	live     map[obKey]obligation
	deferred map[string]bool
}

func runRelease(pass *Pass) []Diag {
	var diags []Diag
	for _, f := range pass.Pkg.Files {
		for _, body := range funcScopes(f) {
			diags = append(diags, releaseScope(pass, body)...)
		}
	}
	return diags
}

func releaseScope(pass *Pass, body *ast.BlockStmt) []Diag {
	pkg, info := pass.Pkg, pass.Pkg.Info
	parents := parentMap(body)
	var diags []Diag

	// Pass 1: the locals this scope acquires (not those of nested
	// literals, which are scopes of their own), and the release funcs it
	// discards outright.
	locals := make(map[types.Object]*tracked)
	opens := make(map[*ast.AssignStmt][]*tracked)
	track := func(as *ast.AssignStmt, obj types.Object, kind *localKind) {
		t := locals[obj]
		if t == nil {
			t = &tracked{obj: obj, kind: kind}
			locals[obj] = t
		}
		if errObj := assignedErr(info, as); errObj != nil {
			t.errObj = errObj
		}
		opens[as] = append(opens[as], t)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || !hasCallRHS(n) {
				return true
			}
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" || info.Defs[id] == nil {
					continue
				}
				switch obj := info.Defs[id]; {
				case isCursorType(obj.Type()):
					track(n, obj, cursorKind)
				case isFrameType(obj.Type()):
					track(n, obj, frameKind)
				}
			}
		case *ast.CallExpr:
			results := providerResults(pkg, pass.Mod, n)
			if results == nil {
				return true
			}
			bound := false
			if as, ok := parents[n].(*ast.AssignStmt); ok {
				if len(as.Rhs) != 1 || as.Rhs[0] != ast.Expr(n) {
					return true
				}
				for i, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && i < len(results) && results[i] {
						if obj := identObj(info, id); obj != nil {
							track(as, obj, funcKind)
							bound = true
						}
					}
				}
			} else if _, ok := parents[n].(*ast.ExprStmt); !ok {
				return true
			}
			if !bound {
				diags = append(diags, diag(pkg, "release", n.Pos(),
					"release func returned by %s is discarded: call it, defer it, or hand it off", exprString(n.Fun)))
			}
		}
		return true
	})

	// A cursor or frame with no release and no hand-off anywhere in the
	// body gets the blunt finding at its acquisition and leaves the path
	// analysis, which handles the rest.
	released := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if t := locals[info.Uses[id]]; t != nil {
				if k := classifyUse(parents, id, t.kind.closing); k != useNone && k != useAdvance {
					released[t.obj] = true
				}
			}
		}
		return true
	})
	for as, ts := range opens {
		for _, t := range ts {
			if t.kind.neverMsg != "" && !released[t.obj] {
				diags = append(diags, diag(pkg, "release", as.Pos(), t.kind.neverMsg, t.obj.Name()))
				delete(locals, t.obj)
			}
		}
	}

	// Pass 2: the dataflow, and one scan of the return edges.
	g := pass.Mod.graphFor(body)
	fl := cfg.Flow[releaseFact]{
		Entry: releaseFact{live: map[obKey]obligation{}, deferred: map[string]bool{}},
		Join: func(a, b releaseFact) releaseFact {
			// Union, keeping the earliest acquisition: live on either
			// path means live at the join. Deferred releases union too,
			// which cannot hide an uncovered path's pin because the pin
			// set unions independently.
			for k, ob := range b.live {
				if prev, ok := a.live[k]; ok {
					ob.at = min(ob.at, prev.at)
					ob.used = ob.used || prev.used
				}
				a.live[k] = ob
			}
			for k := range b.deferred {
				a.deferred[k] = true
			}
			return a
		},
		Equal: func(a, b releaseFact) bool {
			return maps.Equal(a.live, b.live) && maps.Equal(a.deferred, b.deferred)
		},
		Clone: func(f releaseFact) releaseFact {
			return releaseFact{live: maps.Clone(f.live), deferred: maps.Clone(f.deferred)}
		},
		Transfer: func(n cfg.Node, f releaseFact) releaseFact {
			_, isDefer := n.N.(*ast.DeferStmt)
			if as, ok := n.N.(*ast.AssignStmt); ok {
				for _, t := range opens[as] {
					if locals[t.obj] != nil {
						f.live[obKey{obj: t.obj}] = obligation{at: as.Pos()}
					}
				}
			}
			ast.Inspect(n.N, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.SelectorExpr:
					// An Unpin in any form — a call, a method value, or
					// inside a literal that calls it — releases the pin;
					// under a defer it also covers later pins.
					if recv, method, ok := treePinMethod(pkg, x); ok && method == "Unpin" {
						delete(f.live, obKey{recv: recv})
						if isDefer {
							f.deferred[recv] = true
						}
					}
				case *ast.CallExpr:
					// A Pin in a nested literal belongs to the literal's
					// own scope.
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && !isDefer && !inLiteral(parents, x) {
						if recv, method, ok := treePinMethod(pkg, sel); ok && method == "Pin" {
							f.live[obKey{recv: recv}] = obligation{at: x.Pos()}
						}
					}
				case *ast.Ident:
					t := locals[info.Uses[x]]
					if t == nil {
						return true
					}
					k := obKey{obj: t.obj}
					ob, live := f.live[k]
					if !live {
						return true
					}
					switch classifyUse(parents, x, t.kind.closing) {
					case useNone:
					case useAdvance:
						ob.used = true
						f.live[k] = ob
					default:
						delete(f.live, k)
					}
				}
				return true
			})
			return f
		},
		Edge: func(e cfg.Edge, f releaseFact) releaseFact {
			obj, isNil := nilTestOn(info, e)
			if obj == nil {
				return f
			}
			if isNil {
				delete(f.live, obKey{obj: obj})
				return f
			}
			// The open's own error path: the open failed and the
			// resource was never live. Only before any use — afterwards
			// err is some later call's error.
			for k, ob := range f.live {
				if t := locals[k.obj]; t != nil && t.errObj == obj && !ob.used {
					delete(f.live, k)
				}
			}
			return f
		},
	}
	in := cfg.Solve(g, fl)

	type pinLeak struct {
		recv    string
		retLine int
	}
	pinLeaks := make(map[token.Pos]pinLeak)
	type localLeak struct {
		obj types.Object
		ret token.Pos
	}
	reported := make(map[localLeak]bool)
	for _, ef := range cfg.Exits(g, fl, in) {
		if ef.Edge.Kind != cfg.EdgeReturn {
			continue
		}
		retPos := body.End()
		if len(ef.Block.Nodes) > 0 {
			if ret, ok := ef.Block.Nodes[len(ef.Block.Nodes)-1].(*ast.ReturnStmt); ok {
				retPos = ret.Pos()
			}
		}
		retLine := pkg.Fset.Position(retPos).Line
		for k, ob := range ef.Fact.live {
			if k.obj == nil {
				if l, ok := pinLeaks[ob.at]; !ef.Fact.deferred[k.recv] && (!ok || retLine < l.retLine) {
					pinLeaks[ob.at] = pinLeak{recv: k.recv, retLine: retLine}
				}
				continue
			}
			if l := (localLeak{k.obj, retPos}); !reported[l] {
				reported[l] = true
				diags = append(diags, diag(pkg, "release", retPos, locals[k.obj].kind.leakMsg,
					k.obj.Name(), pkg.Fset.Position(ob.at).Line))
			}
		}
	}
	for at, l := range pinLeaks {
		diags = append(diags, diag(pkg, "release", at,
			"%s.Pin() is not released on the return path at line %d: pair it with a defer %s.Unpin() or release it on every path",
			l.recv, l.retLine, l.recv))
	}
	return diags
}

// treePinMethod resolves sel to rtree.Tree.Pin/Unpin (by method name);
// returns the receiver expression key.
func treePinMethod(pkg *Pkg, sel *ast.SelectorExpr) (recvKey, method string, ok bool) {
	recv, fn := selectorObj(pkg.Info, sel)
	if fn == nil || recv == nil || fn.Signature().Recv() == nil {
		return "", "", false
	}
	if fn.Name() != "Pin" && fn.Name() != "Unpin" {
		return "", "", false
	}
	if !fromPkg(fn, "internal/rtree") && !fromPkg(fn, "rtree") {
		return "", "", false
	}
	return exprString(recv), fn.Name(), true
}

// isCursorType reports whether t (or *t) has Close() error plus
// Next/Fetch in its method set: the storage.Cursor shape, which covers
// storage cursors, the wire client's remote Cursor and
// spatialtf.JoinCursor without naming any of them.
func isCursorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	if _, ok := t.Underlying().(*types.Interface); ok {
		ms = types.NewMethodSet(t)
	}
	var hasClose, hasAdvance bool
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		switch fn.Name() {
		case "Close":
			sig := fn.Signature()
			if sig.Params().Len() == 0 && sig.Results().Len() == 1 && lastResultIsError(fn) {
				hasClose = true
			}
		case "Next", "Fetch":
			hasAdvance = true
		}
	}
	return hasClose && hasAdvance
}

// isFrameType reports whether t is *pager.Frame.
func isFrameType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Frame" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/pager")
}

// providerResults returns the ReleaseResults summary of the function
// called by call, when any result is a release func.
func providerResults(pkg *Pkg, mod *Module, call *ast.CallExpr) []bool {
	sum := mod.SummaryOf(calleeFunc(pkg.Info, call))
	if sum == nil {
		return nil
	}
	for _, r := range sum.ReleaseResults {
		if r {
			return sum.ReleaseResults
		}
	}
	return nil
}

// useKind classifies one identifier occurrence of a tracked local.
type useKind int

const (
	// useNone is a comparison against nil or an assignment's left-hand
	// side: neither a use nor a release. A rebinding with `=` leaves the
	// obligation to the value it binds.
	useNone useKind = iota
	// useAdvance is a non-releasing method call (Next, Fetch, Data...):
	// the resource stays live and is marked used.
	useAdvance
	// useRelease is a call of one of the kind's releasing methods
	// (possibly deferred).
	useRelease
	// useEscape hands the resource off: stored, passed, returned,
	// called (a release func), captured by a closure, or its release
	// taken as a method value.
	useEscape
)

// classifyUse decides what an identifier occurrence does to the
// local's obligation; closing names the releasing methods.
func classifyUse(parents map[ast.Node]ast.Node, id *ast.Ident, closing map[string]bool) useKind {
	p := parents[id]
	if bin, ok := p.(*ast.BinaryExpr); ok && (bin.Op == token.EQL || bin.Op == token.NEQ) &&
		(isNilIdent(bin.X) || isNilIdent(bin.Y)) {
		return useNone
	}
	if as, ok := p.(*ast.AssignStmt); ok && slices.Contains(as.Lhs, ast.Expr(id)) {
		return useNone
	}
	// A reference from inside a nested literal is a capture: the
	// closure owns (or shares) the resource now.
	if inLiteral(parents, id) {
		return useEscape
	}
	sel, ok := p.(*ast.SelectorExpr)
	if !ok || sel.X != ast.Expr(id) {
		return useEscape
	}
	if call, ok := parents[sel].(*ast.CallExpr); ok && call.Fun == ast.Expr(sel) {
		if closing[sel.Sel.Name] {
			return useRelease
		}
		return useAdvance
	}
	return useEscape // a method value (cur.Close passed around)
}

// inLiteral reports whether n sits inside a function literal of the
// scope parents was built over.
func inLiteral(parents map[ast.Node]ast.Node, n ast.Node) bool {
	for p := parents[n]; p != nil; p = parents[p] {
		if _, ok := p.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// nilTestOn returns the local compared against nil by e's condition,
// and whether it is nil along e (the true leg of `x == nil`, the false
// leg of `x != nil`). A non-nil error is how an open reports failure,
// so the non-nil leg is returned only for error-typed locals.
func nilTestOn(info *types.Info, e cfg.Edge) (types.Object, bool) {
	bin, ok := e.Cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return nil, false
	}
	x := bin.X
	if isNilIdent(x) {
		x = bin.Y
	} else if !isNilIdent(bin.Y) {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok || info.Uses[id] == nil {
		return nil, false
	}
	obj := info.Uses[id]
	if isNil := e.Branch == (bin.Op == token.EQL); isNil || isErrorType(obj.Type()) {
		return obj, isNil
	}
	return nil, false
}

// assignedErr returns the error variable as assigns, if any.
func assignedErr(info *types.Info, as *ast.AssignStmt) types.Object {
	var errObj types.Object
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			// `cur, err := ...` redeclares nothing when err already
			// exists; the guard variable is then a use, not a def.
			if obj := identObj(info, id); obj != nil && isErrorType(obj.Type()) {
				errObj = obj
			}
		}
	}
	return errObj
}

// identObj returns the object id defines or, failing that, uses.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// hasCallRHS reports whether any right-hand side of as is a call.
func hasCallRHS(as *ast.AssignStmt) bool {
	for _, rhs := range as.Rhs {
		if _, ok := rhs.(*ast.CallExpr); ok {
			return true
		}
	}
	return false
}
