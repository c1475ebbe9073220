package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"sync"

	"spatialtf/internal/analysis/cfg"
)

// Function summaries: the facts the interprocedural rules carry across
// calls, FlowDroid-style. Each module function gets one FuncSummary;
// BuildModule iterates the whole set to a fixpoint so transitive facts
// (a release func built from another release func, a lock taken by a
// callee's callee) converge.
//
// Summaries are keyed by package path + receiver + name rather than by
// *types.Func identity: each package is type-checked against export
// data, so the object a caller resolves for an imported function is
// not the same object the defining package's own check produced.

// FuncSummary is the per-function fact sheet.
type FuncSummary struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Pkg

	// ReleaseResults[i] reports that result i is a release/cancel
	// func: every return site yields nil, a closure or method value
	// that performs a release, or another function's release result.
	ReleaseResults []bool

	// The lock summary (see locksummary.go): which globally-named
	// locks this function acquires, directly or through callees
	// (TransAcquires), which it releases without acquiring
	// (LockReleases — the Unpin side of a pin pair), which it leaves
	// held at a return (LockLeaked — the Pin side), and whether it can
	// block indefinitely on a peer (Blocking).
	TransAcquires map[string]TransAcq
	LockReleases  map[string]bool
	LockLeaked    map[string]LeakInfo
	Blocking      *BlockInfo
}

// Module is the cross-package summary table, plus the caches the
// concurrency rules share: per-scope CFGs, the method-shape index for
// interface-call resolution, and lockdiscipline's module-wide findings.
type Module struct {
	fns  map[string]*FuncSummary
	pkgs []*Pkg

	graphMu sync.Mutex
	graphs  map[*ast.BlockStmt]*cfg.Graph

	idxOnce sync.Once
	mIndex  map[string][]*FuncSummary

	lockOnce  sync.Once
	lockDiags map[*Pkg][]Diag
}

// FuncKey canonicalises fn across type-check universes.
func FuncKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	var sb strings.Builder
	if p := fn.Pkg(); p != nil {
		sb.WriteString(p.Path())
	}
	sb.WriteByte('.')
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			sb.WriteString(named.Obj().Name())
			sb.WriteByte('.')
		}
	}
	sb.WriteString(fn.Name())
	return sb.String()
}

// SummaryOf returns the module summary for fn (nil for functions
// outside the analyzed packages — the standard library, mostly).
func (m *Module) SummaryOf(fn *types.Func) *FuncSummary {
	if m == nil || fn == nil {
		return nil
	}
	return m.fns[FuncKey(fn)]
}

// BuildModule computes summaries for every function declared in pkgs,
// iterating until the facts stop changing (transitive summaries feed
// on each other; the iteration cap is far above any real call-chain
// depth).
func BuildModule(pkgs []*Pkg) *Module {
	m := &Module{fns: make(map[string]*FuncSummary), pkgs: pkgs}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				m.fns[FuncKey(fn)] = &FuncSummary{
					Fn:             fn,
					Decl:           fd,
					Pkg:            pkg,
					ReleaseResults: make([]bool, fn.Signature().Results().Len()),
				}
			}
		}
	}
	keys := sortedKeys(m.fns)
	for range 8 {
		changed := false
		for _, key := range keys {
			s := m.fns[key]
			if updateReleaseResults(s, m) {
				changed = true
			}
			if updateLockFacts(s, m) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return m
}

// --- release-func results ---

// releaseNames are the method names whose call counts as performing a
// release: the lifecycle verbs of this codebase and the stdlib.
var releaseNames = map[string]bool{
	"Unpin": true, "Close": true, "Stop": true, "Cancel": true, "Unlock": true, "RUnlock": true,
}

// updateReleaseResults recomputes s.ReleaseResults; reports a change.
func updateReleaseResults(s *FuncSummary, m *Module) bool {
	sig := s.Fn.Signature()
	changed := false
	for i := 0; i < sig.Results().Len(); i++ {
		if s.ReleaseResults[i] {
			continue
		}
		rt, ok := sig.Results().At(i).Type().Underlying().(*types.Signature)
		if !ok || rt.Params().Len() != 0 {
			continue
		}
		if releaseResultAt(s, m, i) {
			s.ReleaseResults[i] = true
			changed = true
		}
	}
	return changed
}

// releaseResultAt reports whether every return site of s yields a
// release value (or nil) at result index i, with at least one real
// release among them.
func releaseResultAt(s *FuncSummary, m *Module, i int) bool {
	// Locals assigned release closures count when returned by name.
	releaseVars := make(map[types.Object]bool)
	ast.Inspect(s.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for k, lhs := range as.Lhs {
			if k >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if isReleaseExpr(s.Pkg, as.Rhs[k], m, nil) {
				if obj := s.Pkg.Info.Defs[id]; obj != nil {
					releaseVars[obj] = true
				} else if obj := s.Pkg.Info.Uses[id]; obj != nil {
					releaseVars[obj] = true
				}
			}
		}
		return true
	})
	sawRelease := false
	allQualify := true
	for _, ret := range scopeReturns(s.Decl.Body) {
		if len(ret.Results) <= i {
			// Bare return with named results, or a forwarded call —
			// only the single-call forward of a summarized provider
			// qualifies.
			if len(ret.Results) == 1 {
				if call, ok := ret.Results[0].(*ast.CallExpr); ok {
					if fn := calleeFunc(s.Pkg.Info, call); fn != nil {
						if sum := m.SummaryOf(fn); sum != nil && i < len(sum.ReleaseResults) && sum.ReleaseResults[i] {
							sawRelease = true
							continue
						}
					}
				}
			}
			allQualify = false
			continue
		}
		e := ret.Results[i]
		if isNilIdent(e) {
			continue
		}
		if isReleaseExpr(s.Pkg, e, m, releaseVars) {
			sawRelease = true
			continue
		}
		allQualify = false
	}
	return sawRelease && allQualify
}

// isReleaseExpr reports whether e evaluates to a release func: a
// closure that performs a release, a release method value, a call to a
// release provider, or a local already known to hold one.
func isReleaseExpr(pkg *Pkg, e ast.Expr, m *Module, releaseVars map[types.Object]bool) bool {
	switch e := e.(type) {
	case *ast.FuncLit:
		return bodyReleases(pkg, e.Body, m)
	case *ast.SelectorExpr:
		_, fn := selectorObj(pkg.Info, e)
		return fn != nil && releaseNames[fn.Name()]
	case *ast.Ident:
		if releaseVars == nil {
			return false
		}
		if obj := pkg.Info.Uses[e]; obj != nil {
			return releaseVars[obj]
		}
	case *ast.CallExpr:
		if fn := calleeFunc(pkg.Info, e); fn != nil {
			if sum := m.SummaryOf(fn); sum != nil {
				for _, r := range sum.ReleaseResults {
					if r {
						return true
					}
				}
			}
		}
	}
	return false
}

// bodyReleases reports whether n calls a release method or a release
// provider's result.
func bodyReleases(pkg *Pkg, n ast.Node, m *Module) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if _, fn := selectorObj(pkg.Info, sel); fn != nil && releaseNames[fn.Name()] {
				found = true
			}
		}
		return !found
	})
	return found
}

// --- shared helpers ---

// scopeReturns collects the return statements belonging to body's own
// scope (not those of nested function literals).
func scopeReturns(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				out = append(out, x)
			}
			return true
		})
	}
	walk(body)
	return out
}

// calleeFunc resolves the called function of call (selector or bare
// identifier), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		_, fn := selectorObj(info, fun)
		return fn
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
