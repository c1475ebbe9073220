package analysis

// HotAlloc is the hot-path allocation lint: on a declared hot function,
// every may-reached allocation is a finding. The hot set is the
// functions whose doc comment carries a //spatiallint:hot line — the
// per-row and per-frame loops this codebase lives on: the plane-sweep
// inner loops of the spatial join, the table-function Fetch batch
// loops, the R-tree node scans, the pager's pin and WAL-append paths,
// and the wire frame encoders.
//
// Findings come in four shapes: a direct allocation site in the hot
// function (from its AllocSites summary), a call to a module function
// whose summary allocates (reported at the call with the via-chain to
// the deepest sites), and the sub-diagnostics — defer inside a loop
// (a deferred frame per iteration), map iteration inside a hot loop,
// and pool bypass (allocating a type that has a sync.Pool instead of
// getting from the pool).
//
// Deliberate allocations — the per-batch output slice of a Fetch, a
// cache miss that must decode and retain — are suppressed in place
// with a justified //spatiallint:ignore hotalloc directive; the
// justification requirement keeps the hot set honest.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no hidden allocations on declared hot paths (interprocedural escape analysis)",
	Run:  runHotAlloc,
}

const hotPrefix = "//spatiallint:hot"

// poolDecl records one sync.Pool whose New closure builds a known type.
type poolDecl struct {
	pkg *Pkg
	pos token.Pos
}

// hotFuncs returns (cached) the module's hot set, keyed by FuncKey,
// and builds the sync.Pool census alongside it.
func (m *Module) hotFuncs() map[string]bool {
	m.hotOnce.Do(func() {
		m.hotFns = make(map[string]bool)
		m.poolTys = make(map[string]poolDecl)
		for _, key := range sortedKeys(m.fns) {
			s := m.fns[key]
			if hotAnnotated(s.Decl) {
				m.hotFns[key] = true
			}
		}
		for _, pkg := range m.pkgs {
			for _, f := range pkg.Files {
				collectPools(pkg, f, m.poolTys)
			}
		}
	})
	return m.hotFns
}

// pooledTypes returns the census of types built by sync.Pool New
// closures, keyed by their qualified type string.
func (m *Module) pooledTypes() map[string]poolDecl {
	m.hotFuncs()
	return m.poolTys
}

func hotAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotPrefix) {
			return true
		}
	}
	return false
}

// collectPools finds sync.Pool composite literals and records the type
// their New closure allocates.
func collectPools(pkg *Pkg, f *ast.File, out map[string]poolDecl) {
	ast.Inspect(f, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[cl]
		if !ok || tv.Type == nil || !strings.HasSuffix(tv.Type.String(), "sync.Pool") {
			return true
		}
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "New" {
				continue
			}
			fl, ok := kv.Value.(*ast.FuncLit)
			if !ok {
				continue
			}
			for _, ret := range scopeReturns(fl.Body) {
				if len(ret.Results) != 1 {
					continue
				}
				if t := allocatedType(pkg.Info, ret.Results[0]); t != nil {
					out[types.TypeString(t, nil)] = poolDecl{pkg: pkg, pos: cl.Pos()}
				}
			}
		}
		return true
	})
}

// allocatedType resolves the type an allocation expression builds:
// new(T) and &T{} yield T, make(S, …) yields S. Returns nil for
// anything else.
func allocatedType(info *types.Info, e ast.Expr) types.Type {
	switch e := e.(type) {
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok {
			return nil
		}
		b, ok := info.Uses[id].(*types.Builtin)
		if !ok {
			return nil
		}
		switch b.Name() {
		case "new":
			if tv, ok := info.Types[e]; ok && tv.Type != nil {
				if ptr, ok := tv.Type.Underlying().(*types.Pointer); ok {
					return ptr.Elem()
				}
			}
		case "make":
			if tv, ok := info.Types[e]; ok {
				return tv.Type
			}
		}
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return nil
		}
		if cl, ok := e.X.(*ast.CompositeLit); ok {
			if tv, ok := info.Types[cl]; ok {
				return tv.Type
			}
		}
	}
	return nil
}

// --- the rule ---

func runHotAlloc(pass *Pass) []Diag {
	m := pass.Mod
	hot := m.hotFuncs()
	var diags []Diag
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok || !hot[FuncKey(fn)] {
				continue
			}
			s := m.SummaryOf(fn)
			if s == nil {
				continue
			}
			diags = append(diags, hotDirectDiags(pass, s)...)
			diags = append(diags, hotCallDiags(pass, s, m, hot)...)
			diags = append(diags, hotLoopDiags(pass, fd)...)
			diags = append(diags, hotPoolDiags(pass, s, m)...)
		}
	}
	return diags
}

// hotDirectDiags reports the function's own allocation sites.
func hotDirectDiags(pass *Pass, s *FuncSummary) []Diag {
	var diags []Diag
	for _, site := range s.AllocSites {
		var msg string
		switch site.Kind {
		case AllocAppend:
			msg = fmt.Sprintf("hot path allocation: append growth in %s", site.What)
		case AllocConvert:
			msg = fmt.Sprintf("hot path allocation: copying conversion %s", site.What)
		case AllocBox:
			msg = fmt.Sprintf("hot path allocation: %s boxed into interface", site.What)
		case AllocClosure:
			msg = fmt.Sprintf("hot path allocation: closure (%s)", site.Esc)
		default:
			msg = fmt.Sprintf("hot path allocation: %s (%s)", site.What, site.Esc)
		}
		diags = append(diags, diag(pass.Pkg, "hotalloc", site.Pos, "%s", msg))
	}
	return diags
}

// hotCallDiags reports calls to non-hot module functions whose
// summaries allocate, with the via-chain to the deepest sites. Calls
// to functions that are themselves hot are skipped: their sites are
// triaged where they live.
func hotCallDiags(pass *Pass, s *FuncSummary, m *Module, hot map[string]bool) []Diag {
	info := pass.Pkg.Info
	cold := m.coldFor(s)
	var diags []Diag
	ast.Inspect(s.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if inCold(cold, call.Pos()) {
			return false
		}
		fn := calleeFunc(info, call)
		sum := m.SummaryOf(fn)
		if sum == nil || sum == s || hot[FuncKey(sum.Fn)] {
			return true
		}
		entries := calleeAllocEntries(sum)
		if len(entries) == 0 {
			return true
		}
		const show = 3
		shown := entries
		var more string
		if len(entries) > show {
			shown = entries[:show]
			more = fmt.Sprintf(" (and %d more)", len(entries)-show)
		}
		diags = append(diags, diag(pass.Pkg, "hotalloc", call.Pos(),
			"hot path call to %s allocates: %s%s", declNameOf(sum.Decl), strings.Join(shown, "; "), more))
		return true
	})
	return diags
}

// calleeAllocEntries renders a callee's allocation summary, direct
// sites first, each as "what at file.go:NN[ via chain]".
func calleeAllocEntries(sum *FuncSummary) []string {
	var out []string
	for _, site := range sum.AllocSites {
		out = append(out, fmt.Sprintf("%s at %s", site.What, shortPos(sum.Pkg, site.Pos)))
	}
	for _, k := range sortedKeys(sum.TransAllocs) {
		ta := sum.TransAllocs[k]
		out = append(out, fmt.Sprintf("%s at %s via %s", ta.What, ta.Where, ta.Via))
	}
	return out
}

// hotLoopDiags reports the loop-shape sub-diagnostics: defer inside a
// loop, and map iteration inside a loop. Both walk only the hot
// function's own statements — a nested closure runs on its own
// schedule, not once per enclosing iteration.
func hotLoopDiags(pass *Pass, fd *ast.FuncDecl) []Diag {
	var diags []Diag
	var walk func(n ast.Node, loops int)
	walk = func(n ast.Node, loops int) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				if x.Body != nil {
					walk(x.Body, loops+1)
				}
				return false
			case *ast.RangeStmt:
				if loops > 0 && isMapRange(pass.Pkg.Info, x) {
					diags = append(diags, diag(pass.Pkg, "hotalloc", x.Pos(),
						"map iteration inside a hot loop: order is randomized each pass; iterate a sorted slice instead"))
				}
				if x.Body != nil {
					walk(x.Body, loops+1)
				}
				return false
			case *ast.DeferStmt:
				if loops > 0 {
					diags = append(diags, diag(pass.Pkg, "hotalloc", x.Pos(),
						"defer inside a hot loop: a deferred frame is queued every iteration; hoist it out of the loop"))
				}
			}
			return true
		})
	}
	walk(fd.Body, 0)
	return diags
}

func isMapRange(info *types.Info, r *ast.RangeStmt) bool {
	tv, ok := info.Types[r.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// hotPoolDiags reports pool bypass: a make/new/&T{} in a hot function
// whose type has a sync.Pool somewhere in the module. Escape does not
// matter — even a non-escaping use should go through the pool so the
// pooled buffers stay warm.
func hotPoolDiags(pass *Pass, s *FuncSummary, m *Module) []Diag {
	pools := m.pooledTypes()
	if len(pools) == 0 {
		return nil
	}
	var diags []Diag
	ast.Inspect(s.Decl.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		t := allocatedType(pass.Pkg.Info, e)
		if t == nil {
			return true
		}
		key := types.TypeString(t, nil)
		pd, ok := pools[key]
		if !ok {
			return true
		}
		diags = append(diags, diag(pass.Pkg, "hotalloc", e.Pos(),
			"hot path allocates %s which has a sync.Pool (declared at %s); get from the pool instead",
			key, shortPos(pd.pkg, pd.pos)))
		return false
	})
	return diags
}

// --- allocation-graph dump ---

// AllocGraphDot renders the module's hot-path allocation flow for
// `spatiallint -allocgraph`: hot roots (red) with edges to the module
// callees they reach, each node labelled with its direct allocation
// site count, pruned to the subgraph that actually allocates.
func AllocGraphDot(mod *Module) string {
	hot := mod.hotFuncs()
	type node struct {
		label string
		sites int
		hot   bool
	}
	nodes := make(map[string]node)
	edges := make(map[string]map[string]bool)

	var visit func(key string)
	visit = func(key string) {
		if _, ok := nodes[key]; ok {
			return
		}
		s := mod.fns[key]
		if s == nil {
			return
		}
		nodes[key] = node{
			label: strings.TrimPrefix(s.Pkg.Path, "spatialtf/") + "." + declNameOf(s.Decl),
			sites: len(s.AllocSites),
			hot:   hot[key],
		}
		cold := mod.coldFor(s)
		ast.Inspect(s.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if inCold(cold, call.Pos()) {
				return false
			}
			fn := calleeFunc(s.Pkg.Info, call)
			sum := mod.SummaryOf(fn)
			if sum == nil || sum == s {
				return true
			}
			if len(sum.AllocSites) == 0 && len(sum.TransAllocs) == 0 {
				return true
			}
			ck := FuncKey(sum.Fn)
			if edges[key] == nil {
				edges[key] = make(map[string]bool)
			}
			edges[key][ck] = true
			visit(ck)
			return true
		})
	}
	for _, key := range sortedKeys(mod.fns) {
		if hot[key] {
			visit(key)
		}
	}

	var b strings.Builder
	b.WriteString("digraph hotalloc {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, key := range sortedKeys(nodes) {
		n := nodes[key]
		// Interior nodes that neither allocate nor are hot are kept only
		// for connectivity; they still carry their zero count.
		attr := fmt.Sprintf("label=\"%s\\n%d direct site(s)\"", n.label, n.sites)
		if n.hot {
			attr += ", color=red, penwidth=2"
		}
		fmt.Fprintf(&b, "  %q [%s];\n", key, attr)
	}
	for _, from := range sortedKeys(edges) {
		for _, to := range sortedKeys(edges[from]) {
			fmt.Fprintf(&b, "  %q -> %q;\n", from, to)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
