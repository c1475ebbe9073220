package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"spatialtf/internal/analysis/cfg"
)

// TaintSize enforces the bounded-allocation contract on every decode
// path: a length or count read out of raw bytes — a wire frame, a
// snapshot stream, a geometry image — is attacker-controlled, and
// feeding it to make() or (*bytes.Buffer).Grow before any bound check
// lets a forged 16-byte message demand gigabytes. The sources are the
// unbounded integer decodes (binary.Uvarint/Varint, ReadUvarint/
// ReadVarint, and ByteOrder.Uint32/Uint64 — Uint16 is bounded by 65535
// and exempt), plus any module function whose summary says a result
// carries such a count. Any comparison involving the tainted value
// counts as the bound check and clears it, as does passing it through
// min/len/cap or any other ordinary call.
//
// The rule is interprocedural through the module summaries: a helper
// that allocates from its parameter without checking it is flagged at
// its call sites when the argument is tainted, and a helper that
// returns a raw decoded count taints its callers' locals.
var TaintSize = &Analyzer{
	Name: "taintsize",
	Doc:  "a length decoded from wire/snapshot/geometry bytes must pass a bound check before it sizes an allocation",
	Run:  runTaintSize,
}

// taintVal records where a tainted value was decoded and, for summary
// computation, which parameter it arrived through (-1 when it came
// from a decode source).
type taintVal struct {
	pos   token.Pos
	param int
}

type taintFact map[types.Object]taintVal

func runTaintSize(pass *Pass) []Diag {
	pkg := pass.Pkg
	var diags []Diag
	for _, f := range pkg.Files {
		for _, body := range funcScopes(f) {
			g := pass.Mod.graphFor(body)
			fl := taintFlow(pkg, pass.Mod, nil)
			in := cfg.Solve(g, fl)
			taintSinks(pkg, pass.Mod, g, fl, in, func(pos token.Pos, argName string, val taintVal, sink string) {
				if val.param >= 0 {
					return // parameter taint is the summary's business
				}
				diags = append(diags, diag(pkg, "taintsize", pos,
					"allocation sized by %q: the count was decoded from raw bytes at line %d and reaches this %s without a bound check",
					argName, pkg.Fset.Position(val.pos).Line, sink))
			})
		}
	}
	return diags
}

// taintFlow builds the forward taint dataflow. seed taints the given
// objects at entry (the parameters, during summary computation).
func taintFlow(pkg *Pkg, mod *Module, seed taintFact) cfg.Flow[taintFact] {
	entry := taintFact{}
	for obj, v := range seed {
		entry[obj] = v
	}
	return cfg.Flow[taintFact]{
		Entry: entry,
		Join: func(a, b taintFact) taintFact {
			for obj, v := range b {
				if prev, ok := a[obj]; ok {
					// Prefer the decode origin: it is the one the rule
					// reports, and the earlier position on ties.
					if (v.param < 0 && prev.param >= 0) || (v.param == prev.param && v.pos < prev.pos) {
						a[obj] = v
					}
				} else {
					a[obj] = v
				}
			}
			return a
		},
		Equal: func(a, b taintFact) bool {
			if len(a) != len(b) {
				return false
			}
			for obj, v := range a {
				if other, ok := b[obj]; !ok || other != v {
					return false
				}
			}
			return true
		},
		Clone: func(f taintFact) taintFact {
			c := make(taintFact, len(f))
			for obj, v := range f {
				c[obj] = v
			}
			return c
		},
		Transfer: func(n cfg.Node, f taintFact) taintFact {
			return taintTransfer(pkg, mod, n.N, f)
		},
	}
}

// taintTransfer applies one node's taint effects: assignments
// propagate, decode calls introduce, comparisons sanitize. Function
// literals are their own analysis scopes and are skipped.
func taintTransfer(pkg *Pkg, mod *Module, node ast.Node, f taintFact) taintFact {
	ast.Inspect(node, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			taintAssign(pkg, mod, x, f)
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) {
					setTaint(pkg, f, name, taintValOf(pkg, mod, x.Values[i], f))
				}
			}
		case *ast.BinaryExpr:
			switch x.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				// A comparison is the bound check: whatever tainted
				// values it mentions are considered validated on every
				// path from here.
				for _, e := range []ast.Expr{x.X, x.Y} {
					ast.Inspect(e, func(y ast.Node) bool {
						if id, ok := y.(*ast.Ident); ok {
							if obj := pkg.Info.Uses[id]; obj != nil {
								delete(f, obj)
							}
						}
						return true
					})
				}
			}
		}
		return true
	})
	return f
}

// taintAssign propagates taint through one assignment.
func taintAssign(pkg *Pkg, mod *Module, as *ast.AssignStmt, f taintFact) {
	if len(as.Lhs) > 1 && len(as.Rhs) == 1 {
		// Multi-value call: n, err := binary.ReadUvarint(r).
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		results := sourceResults(pkg, mod, call)
		for i, lhs := range as.Lhs {
			var v *taintVal
			if results != nil && i < len(results) && results[i] {
				v = &taintVal{pos: call.Pos(), param: -1}
			}
			setTaint(pkg, f, lhs, v)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		v := taintValOf(pkg, mod, as.Rhs[i], f)
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			// Compound assignment (+=, <<=, ...): taint accumulates, an
			// untainted operand does not launder an already-tainted LHS.
			if v == nil {
				continue
			}
		}
		setTaint(pkg, f, lhs, v)
	}
}

// setTaint sets or clears the taint of an identifier target. Only
// integer-typed variables are tracked.
func setTaint(pkg *Pkg, f taintFact, lhs ast.Expr, v *taintVal) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pkg.Info.Defs[id]
	if obj == nil {
		obj = pkg.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	if v == nil {
		delete(f, obj)
		return
	}
	if basic, ok := obj.Type().Underlying().(*types.Basic); !ok || basic.Info()&types.IsInteger == 0 {
		return
	}
	f[obj] = *v
}

// taintValOf evaluates the taint of expression e under fact f, or nil.
func taintValOf(pkg *Pkg, mod *Module, e ast.Expr, f taintFact) *taintVal {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[e]; obj != nil {
			if v, ok := f[obj]; ok {
				return &v
			}
		}
	case *ast.ParenExpr:
		return taintValOf(pkg, mod, e.X, f)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return taintValOf(pkg, mod, e.X, f)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.SHL, token.SHR, token.AND, token.OR, token.XOR:
			x := taintValOf(pkg, mod, e.X, f)
			y := taintValOf(pkg, mod, e.Y, f)
			if x != nil && (y == nil || x.param < 0) {
				return x
			}
			return y
		}
	case *ast.CallExpr:
		// A conversion passes taint through; a decode source introduces
		// it; every other call (min, len, cap, arbitrary functions with
		// untainted summaries) launders it.
		if tv, ok := pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return taintValOf(pkg, mod, e.Args[0], f)
		}
		if results := sourceResults(pkg, mod, e); results != nil && len(results) > 0 && results[0] {
			return &taintVal{pos: e.Pos(), param: -1}
		}
	}
	return nil
}

// sourceResults reports which results of call carry an unbounded
// decoded count, or nil when the call is not a source. The stdlib
// sources are the unbounded binary decodes; module functions
// contribute their TaintedResults summary.
func sourceResults(pkg *Pkg, mod *Module, call *ast.CallExpr) []bool {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return nil
	}
	if pkgPathOf(fn) == "encoding/binary" {
		switch fn.Name() {
		case "Uvarint", "Varint", "ReadUvarint", "ReadVarint":
			return []bool{true, false}
		case "Uint32", "Uint64":
			return []bool{true}
		}
		return nil
	}
	if sum := mod.SummaryOf(fn); sum != nil {
		for _, t := range sum.TaintedResults {
			if t {
				return sum.TaintedResults
			}
		}
	}
	return nil
}

// taintSinks replays the solved dataflow and calls emit for every
// allocation sink reached by a tainted size: make() length/capacity
// arguments, (*bytes.Buffer).Grow, and arguments to module functions
// whose summary marks the parameter as allocating unguarded.
func taintSinks(pkg *Pkg, mod *Module, g *cfg.Graph, fl cfg.Flow[taintFact], in map[*cfg.Block]taintFact,
	emit func(pos token.Pos, argName string, val taintVal, sink string)) {
	cfg.Walk(g, fl, in, func(n cfg.Node, before taintFact) {
		ast.Inspect(n.N, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
					for _, arg := range call.Args[1:] {
						if v := taintValOf(pkg, mod, arg, before); v != nil {
							emit(call.Pos(), exprString(arg), *v, "make")
						}
					}
					return true
				}
			}
			fn := calleeFunc(pkg.Info, call)
			if fn == nil {
				return true
			}
			if fn.Name() == "Grow" && pkgPathOf(fn) == "bytes" {
				if len(call.Args) == 1 {
					if v := taintValOf(pkg, mod, call.Args[0], before); v != nil {
						emit(call.Pos(), exprString(call.Args[0]), *v, "Grow")
					}
				}
				return true
			}
			if sum := mod.SummaryOf(fn); sum != nil {
				for i, arg := range call.Args {
					if i >= len(sum.UnguardedSizeParams) || !sum.UnguardedSizeParams[i] {
						continue
					}
					if v := taintValOf(pkg, mod, arg, before); v != nil {
						emit(call.Pos(), exprString(arg), *v, fn.Name())
					}
				}
			}
			return true
		})
	})
}

// updateTaintSummary recomputes s.TaintedResults and
// s.UnguardedSizeParams; reports a change. Parameters are seeded as
// tainted (tagged with their index) so a sink reached by one marks it
// unguarded; results tainted by a genuine decode source (not a
// forwarded parameter) mark TaintedResults.
func updateTaintSummary(s *FuncSummary, m *Module) bool {
	seed := taintFact{}
	sig := s.Fn.Signature()
	idx := 0
	if s.Decl.Type.Params != nil {
		for _, field := range s.Decl.Type.Params.List {
			for _, name := range field.Names {
				if idx >= sig.Params().Len() {
					break
				}
				obj := s.Pkg.Info.Defs[name]
				if obj != nil {
					if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsInteger != 0 {
						seed[obj] = taintVal{pos: name.Pos(), param: idx}
					}
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
	g := m.graphFor(s.Decl.Body)
	fl := taintFlow(s.Pkg, m, seed)
	in := cfg.Solve(g, fl)
	changed := false
	taintSinks(s.Pkg, m, g, fl, in, func(_ token.Pos, _ string, val taintVal, _ string) {
		if val.param >= 0 && val.param < len(s.UnguardedSizeParams) && !s.UnguardedSizeParams[val.param] {
			s.UnguardedSizeParams[val.param] = true
			changed = true
		}
	})
	cfg.Walk(g, fl, in, func(n cfg.Node, before taintFact) {
		ret, ok := n.N.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for i, res := range ret.Results {
			if i >= len(s.TaintedResults) || s.TaintedResults[i] {
				continue
			}
			if v := taintValOf(s.Pkg, m, res, before); v != nil && v.param < 0 {
				s.TaintedResults[i] = true
				changed = true
			}
		}
	})
	return changed
}
