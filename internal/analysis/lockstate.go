package analysis

// Lock identity and the shared lock-state dataflow machinery under
// lockdiscipline and the lock summaries in locksummary.go.
//
// A lock is named by the innermost named struct type that declares the
// mutex field: `s.mu` on pager.Store is "pager.Store.mu" no matter how
// the receiver is spelled at a call site, so acquisitions in different
// functions (and different packages) fold into one node of the module
// lock-order graph. Mutexes that are locals or parameters get a
// function-local identity (their spelling) and stay out of the global
// graph: two functions locking their own `mu *sync.Mutex` parameters
// share no lock as far as the module can tell.
//
// lockScanner is the one transition function over that state. It runs
// in two modes: as a cfg.Flow transfer (no events) while solving, and
// as a replay during cfg.Walk with a lockEvents sink attached, which is
// where the rule and the summary collector observe acquisitions,
// blocking operations and releases in order.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"spatialtf/internal/analysis/cfg"
)

// lockIdent names one lock.
type lockIdent struct {
	name   string
	global bool // names a struct field: comparable across functions
}

// lockIdentOf derives the identity of the mutex receiver expression e.
func lockIdentOf(pkg *Pkg, e ast.Expr) lockIdent {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if id, ok := fieldIdentOf(pkg, sel); ok {
			return lockIdent{name: id, global: true}
		}
	}
	return lockIdent{name: exprString(e)}
}

// fieldIdentOf resolves sel to "pkg.Type.field" when sel selects a
// struct field of a named type.
func fieldIdentOf(pkg *Pkg, sel *ast.SelectorExpr) (string, bool) {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	t := s.Recv()
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + s.Obj().Name(), true
}

// heldLock is one lock the analysis believes is held at a point.
type heldLock struct {
	id      lockIdent
	display string       // receiver as written at the acquisition site
	pos     token.Pos    // acquisition (or leaking call) site
	write   bool         // Lock vs RLock
	via     string       // callee chain when the lock entered via a leak
	relObj  types.Object // release-func variable bound to this lock
}

// direct reports the lock was acquired by a mu.Lock in this very scope
// — the only kind held-across-blocking findings consider; pin-style
// locks leaked by callees participate only in ordering checks.
func (h heldLock) direct() bool { return h.via == "" && h.relObj == nil }

// lockFact maps an acquisition key to the lock it holds. Direct
// acquisitions key by the receiver spelling; callee leaks key by
// "recv#ident"; release-func bindings key by the bound variable.
type lockFact map[string]heldLock

func cloneLockFact(f lockFact) lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func equalLockFact(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// joinLockFactUnion is the may-hold join: held on any path counts.
// First writer wins per key, so loop re-joins stay stable.
func joinLockFactUnion(a, b lockFact) lockFact {
	for k, v := range b {
		if _, ok := a[k]; !ok {
			a[k] = v
		}
	}
	return a
}

func sortedFactKeys(f lockFact) []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockEvents receives the interesting occurrences while a scanner
// replays a function; the rules hang their reporting here. Events
// deduplicate by (position, kind, detail) because a node can be
// replayed when several blocks share facts.
type lockEvents struct {
	seen map[string]bool
	// acquire fires when id is acquired — directly, or transitively by
	// a callee (via non-empty) — with the facts held just before.
	acquire func(pos token.Pos, id lockIdent, display string, write bool, via string, before lockFact)
	// blocking fires at an operation that can block on a peer. via is
	// the callee chain when the operation is inside a callee.
	blocking func(pos token.Pos, what, via string, before lockFact)
	// release fires at unlocks; matched reports whether a held entry
	// was discharged (an unmatched release is a net release the
	// summaries record, the Unpin side of a pin pair).
	release func(pos token.Pos, id lockIdent, matched bool)
}

func (ev *lockEvents) once(pos token.Pos, kind, detail string) bool {
	if ev.seen == nil {
		ev.seen = make(map[string]bool)
	}
	k := strconv.Itoa(int(pos)) + "/" + kind + "/" + detail
	if ev.seen[k] {
		return false
	}
	ev.seen[k] = true
	return true
}

// walkCtx threads per-statement context through the expression walk.
type walkCtx struct {
	ev     *lockEvents
	noChan bool                             // inside a select comm statement
	binds  map[*ast.CallExpr][]types.Object // call → release-result targets
}

// lockScanner drives lock-state transitions over one function scope.
type lockScanner struct {
	pkg *Pkg
	mod *Module
	// Select plumbing: comm statements mapped to their select, and
	// whether that select has a default clause (non-blocking).
	selComm    map[ast.Node]*ast.SelectStmt
	selDefault map[*ast.SelectStmt]bool
}

func newLockScanner(pkg *Pkg, mod *Module, body *ast.BlockStmt) *lockScanner {
	sc := &lockScanner{
		pkg:        pkg,
		mod:        mod,
		selComm:    make(map[ast.Node]*ast.SelectStmt),
		selDefault: make(map[*ast.SelectStmt]bool),
	}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil {
				sc.selDefault[sel] = true
			} else {
				sc.selComm[cc.Comm] = sel
			}
		}
		return true
	})
	return sc
}

// flow builds the may-hold dataflow problem over the scanner.
func (sc *lockScanner) flow() cfg.Flow[lockFact] {
	return cfg.Flow[lockFact]{
		Entry: lockFact{},
		Join:  joinLockFactUnion,
		Equal: equalLockFact,
		Clone: cloneLockFact,
		Transfer: func(n cfg.Node, f lockFact) lockFact {
			return sc.apply(n.N, f, nil)
		},
	}
}

// replay re-walks the solved facts with ev attached, firing events in
// block order with the facts in force just before each occurrence.
func (sc *lockScanner) replay(g *cfg.Graph, ev *lockEvents) map[*cfg.Block]lockFact {
	fl := sc.flow()
	in := cfg.Solve(g, fl)
	cfg.Walk(g, fl, in, func(n cfg.Node, before lockFact) {
		sc.apply(n.N, cloneLockFact(before), ev)
	})
	return in
}

// apply transitions f over node n. With ev non-nil the interesting
// occurrences fire as events (the Walk replay); Solve passes nil.
func (sc *lockScanner) apply(n ast.Node, f lockFact, ev *lockEvents) lockFact {
	ctx := &walkCtx{ev: ev}
	switch n := n.(type) {
	case *ast.RangeStmt:
		// The head re-evaluates only the iteration binding; s.X is its
		// own node and the body statements live in their own blocks.
		return f
	case *ast.GoStmt:
		// The spawned call runs on another goroutine with fresh lock
		// state (its literal body is a separate funcScopes scope); only
		// the arguments are evaluated here.
		for _, arg := range n.Call.Args {
			f = sc.walk(arg, f, ctx)
		}
		return f
	case *ast.DeferStmt:
		return sc.applyDefer(n, f, ctx)
	}
	// A comm statement of a select: the select itself (not the comm's
	// channel op) is the blocking event, reported once.
	if s, ok := n.(ast.Stmt); ok {
		if sel := sc.selComm[s]; sel != nil {
			if !sc.selDefault[sel] && ev != nil && ev.blocking != nil && ev.once(sel.Pos(), "block", "select") {
				ev.blocking(sel.Pos(), "select without default", "", f)
			}
			ctx.noChan = true
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		sc.markBindings(n.Lhs, n.Rhs, ctx)
		for _, r := range n.Rhs {
			f = sc.walk(r, f, ctx)
		}
		for _, l := range n.Lhs {
			f = sc.walk(l, f, ctx)
		}
		return f
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return f
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			sc.markBindings(lhs, vs.Values, ctx)
			for _, v := range vs.Values {
				f = sc.walk(v, f, ctx)
			}
		}
		return f
	case *ast.SendStmt:
		f = sc.walk(n.Chan, f, ctx)
		f = sc.walk(n.Value, f, ctx)
		if !ctx.noChan && ev != nil && ev.blocking != nil && ev.once(n.Arrow, "block", "send") {
			ev.blocking(n.Arrow, "channel send", "", f)
		}
		return f
	case ast.Stmt:
		// Remaining statement nodes (expr, return, branch, type-switch
		// assign...): walk every nested expression in order.
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if e, ok := x.(ast.Expr); ok {
				f = sc.walk(e, f, ctx)
				return false
			}
			return true
		})
		return f
	case ast.Expr:
		// Condition/tag/range-operand nodes.
		return sc.walk(n, f, ctx)
	}
	return f
}

// markBindings records which release-result objects each RHS call
// assigns, so applyCallee can bind leaked locks to the variable that
// holds their release func (`unpin := pinTrees(a, b)`).
func (sc *lockScanner) markBindings(lhs, rhs []ast.Expr, ctx *walkCtx) {
	if len(rhs) == 0 {
		return
	}
	resolve := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if obj := sc.pkg.Info.Defs[id]; obj != nil {
			return obj
		}
		return sc.pkg.Info.Uses[id]
	}
	addBind := func(call *ast.CallExpr, targets []ast.Expr) {
		fn := calleeFunc(sc.pkg.Info, call)
		sum := sc.mod.SummaryOf(fn)
		if sum == nil || len(sum.LockLeaked) == 0 {
			return
		}
		for i, rel := range sum.ReleaseResults {
			if !rel || i >= len(targets) {
				continue
			}
			if obj := resolve(targets[i]); obj != nil {
				if ctx.binds == nil {
					ctx.binds = make(map[*ast.CallExpr][]types.Object)
				}
				ctx.binds[call] = append(ctx.binds[call], obj)
			}
		}
	}
	if len(rhs) == 1 && len(lhs) >= 1 {
		if call, ok := rhs[0].(*ast.CallExpr); ok {
			addBind(call, lhs)
			return
		}
	}
	for i, r := range rhs {
		if call, ok := r.(*ast.CallExpr); ok && i < len(lhs) {
			addBind(call, []ast.Expr{lhs[i]})
		}
	}
}

// applyDefer models a defer at its registration point. A deferred
// unlock keeps the lock held for the rest of the function (the leak
// computation subtracts it at exits); a deferred closure is a separate
// scope with fresh lock state; any other deferred call is scanned as
// events here, where the registration happens.
func (sc *lockScanner) applyDefer(d *ast.DeferStmt, f lockFact, ctx *walkCtx) lockFact {
	if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok {
		if _, method, ok := syncLockMethod(sc.pkg, sel); ok && strings.HasSuffix(method, "Unlock") {
			return f
		}
	}
	if _, ok := d.Call.Fun.(*ast.FuncLit); ok {
		return f
	}
	return sc.walk(d.Call, f, ctx)
}

// walk applies one expression tree in syntactic order.
func (sc *lockScanner) walk(e ast.Expr, f lockFact, ctx *walkCtx) lockFact {
	switch e := e.(type) {
	case nil:
		return f
	case *ast.FuncLit:
		return f // separate scope: fresh lock state
	case *ast.UnaryExpr:
		f = sc.walk(e.X, f, ctx)
		if e.Op == token.ARROW && !ctx.noChan && ctx.ev != nil && ctx.ev.blocking != nil && ctx.ev.once(e.Pos(), "block", "recv") {
			ctx.ev.blocking(e.Pos(), "channel receive", "", f)
		}
		return f
	case *ast.CallExpr:
		return sc.applyCall(e, f, ctx)
	case *ast.SelectorExpr:
		return sc.walk(e.X, f, ctx)
	case *ast.Ident:
		// A use of a variable bound to a release func discharges the
		// locks it guards: calling it releases them, and any other use
		// hands the release obligation off.
		if obj := sc.pkg.Info.Uses[e]; obj != nil {
			for k, h := range f {
				if h.relObj == obj {
					delete(f, k)
				}
			}
		}
		return f
	default:
		ast.Inspect(e, func(x ast.Node) bool {
			if x == ast.Node(e) {
				return true
			}
			if _, ok := x.(*ast.FuncLit); ok {
				return false
			}
			if xe, ok := x.(ast.Expr); ok {
				f = sc.walk(xe, f, ctx)
				return false
			}
			return true
		})
		return f
	}
}

// applyCall evaluates a call: receiver and arguments first, then the
// call's own effect — a lock transition, a blocking operation, or a
// module callee's summarized behavior.
func (sc *lockScanner) applyCall(call *ast.CallExpr, f lockFact, ctx *walkCtx) lockFact {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		f = sc.walk(fun.X, f, ctx)
	case *ast.FuncLit:
		// Immediately-invoked literal: body is its own scope.
	default:
		f = sc.walk(fun, f, ctx)
	}
	for _, arg := range call.Args {
		f = sc.walk(arg, f, ctx)
	}

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if _, method, ok := syncLockMethod(sc.pkg, sel); ok {
			return sc.applyLockOp(call, sel, method, f, ctx)
		}
		recv, fn := selectorObj(sc.pkg.Info, sel)
		if fn == nil {
			return f
		}
		if what, ok := blockingCall(sc.pkg, call, sel); ok {
			if ctx.ev != nil && ctx.ev.blocking != nil && ctx.ev.once(call.Pos(), "block", what) {
				ctx.ev.blocking(call.Pos(), what, "", f)
			}
			return f
		}
		display := exprString(sel.X)
		if recv != nil {
			display = exprString(recv)
		}
		return sc.applyCallee(call, fn, display, f, ctx)
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if fn, ok := sc.pkg.Info.Uses[id].(*types.Func); ok {
			if what, ok := blockingFunc(fn); ok {
				if ctx.ev != nil && ctx.ev.blocking != nil && ctx.ev.once(call.Pos(), "block", what) {
					ctx.ev.blocking(call.Pos(), what, "", f)
				}
				return f
			}
			return sc.applyCallee(call, fn, fn.Name(), f, ctx)
		}
	}
	return f
}

// applyLockOp transitions a direct sync.Mutex/RWMutex Lock/Unlock.
func (sc *lockScanner) applyLockOp(call *ast.CallExpr, sel *ast.SelectorExpr, method string, f lockFact, ctx *walkCtx) lockFact {
	recv := sel.X
	id := lockIdentOf(sc.pkg, recv)
	display := exprString(recv)
	switch method {
	case "Lock", "RLock":
		if ctx.ev != nil && ctx.ev.acquire != nil && ctx.ev.once(call.Pos(), "acq", id.name) {
			ctx.ev.acquire(call.Pos(), id, display, method == "Lock", "", f)
		}
		if _, ok := f[display]; !ok {
			f[display] = heldLock{id: id, display: display, pos: call.Pos(), write: method == "Lock"}
		}
	case "Unlock", "RUnlock":
		_, matched := f[display]
		delete(f, display)
		if ctx.ev != nil && ctx.ev.release != nil && ctx.ev.once(call.Pos(), "rel", id.name) {
			ctx.ev.release(call.Pos(), id, matched)
		}
	}
	return f
}

// applyCallee folds fn's module summary (or the joined summaries of a
// module interface method's possible targets) into the state:
// transitive acquisitions surface as acquire events (order edges,
// same-lock checks), a blocking callee surfaces as a blocking event,
// and leaked locks enter the held set — bound to the variable receiving
// the release func when the call returns one.
func (sc *lockScanner) applyCallee(call *ast.CallExpr, fn *types.Func, display string, f lockFact, ctx *walkCtx) lockFact {
	for _, sum := range sc.mod.calleeSummaries(fn) {
		if ctx.ev != nil && ctx.ev.acquire != nil {
			for _, name := range sortedKeys(sum.TransAcquires) {
				ta := sum.TransAcquires[name]
				if !ctx.ev.once(call.Pos(), "acq", name) {
					continue
				}
				via := fn.Name()
				if ta.Via != "" {
					via += " → " + ta.Via
				}
				ctx.ev.acquire(call.Pos(), lockIdent{name: name, global: true}, display, ta.Write, via, f)
			}
		}
		if b := sum.Blocking; b != nil && ctx.ev != nil && ctx.ev.blocking != nil && ctx.ev.once(call.Pos(), "block", "callee") {
			via := fn.Name()
			if b.Via != "" {
				via += " → " + b.Via
			}
			ctx.ev.blocking(call.Pos(), b.What, via, f)
		}
		// Releases before leaks: an Unpin-style wrapper discharges what
		// an earlier call left held.
		for _, name := range sortedKeys(sum.LockReleases) {
			f = sc.dischargeLeaked(call, display, name, f, ctx)
		}
		if len(sum.LockLeaked) > 0 {
			bound := ctx.binds[call]
			for _, name := range sortedKeys(sum.LockLeaked) {
				li := sum.LockLeaked[name]
				h := heldLock{
					id:      lockIdent{name: name, global: true},
					display: display,
					pos:     call.Pos(),
					write:   li.Write,
					via:     fn.Name(),
				}
				key := display + "#" + name
				if len(bound) > 0 {
					h.relObj = bound[0]
					key = "bind:" + bound[0].Name() + ":" + name
				}
				if _, ok := f[key]; !ok {
					f[key] = h
				}
			}
		}
	}
	return f
}

// dischargeLeaked removes the held entry a callee release (Unpin and
// friends) pays off: the same receiver's leak first, then any leaked
// entry of that lock. An unmatched release is the summary-visible net
// release of a release wrapper.
func (sc *lockScanner) dischargeLeaked(call *ast.CallExpr, display, name string, f lockFact, ctx *walkCtx) lockFact {
	key := display + "#" + name
	if _, ok := f[key]; ok {
		delete(f, key)
		return f
	}
	best := ""
	for k, h := range f {
		if h.id.name == name && !h.direct() && (best == "" || k < best) {
			best = k
		}
	}
	if best != "" {
		delete(f, best)
		return f
	}
	if ctx.ev != nil && ctx.ev.release != nil && ctx.ev.once(call.Pos(), "rel", name) {
		ctx.ev.release(call.Pos(), lockIdent{name: name, global: true}, false)
	}
	return f
}

// deferredReleaseKeys collects the fact keys the function's defers
// discharge at exit: deferred unlock receivers, and unlock or release
// calls inside deferred closures. The leak computation subtracts them
// from what is held at each return.
func (sc *lockScanner) deferredReleaseKeys(g *cfg.Graph) map[string]bool {
	keys := make(map[string]bool)
	addUnlock := func(sel *ast.SelectorExpr) {
		if _, method, ok := syncLockMethod(sc.pkg, sel); ok && strings.HasSuffix(method, "Unlock") {
			keys[exprString(sel.X)] = true
		}
	}
	for _, d := range g.Defers {
		if sel, ok := d.Call.Fun.(*ast.SelectorExpr); ok {
			addUnlock(sel)
		}
		lit, ok := d.Call.Fun.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			addUnlock(sel)
			if _, fn := selectorObj(sc.pkg.Info, sel); fn != nil && releaseNames[fn.Name()] {
				keys["prefix:"+exprString(sel.X)] = true
			}
			return true
		})
	}
	return keys
}

// dischargedAtExit reports whether the deferred-release key set pays
// off held entry h (stored under fact key k).
func dischargedAtExit(keys map[string]bool, k string, h heldLock) bool {
	return keys[k] || keys[h.display] || keys["prefix:"+h.display]
}

// sortedKeys returns map keys in sorted order, for deterministic event
// emission.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// shortPos renders pos as "file.go:NN" for inclusion in messages.
func shortPos(pkg *Pkg, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// lockHeldPhrase renders a held lock for diagnostics: the receiver as
// written, plus the callee chain it arrived through.
func lockHeldPhrase(h heldLock) string {
	if h.via != "" {
		return fmt.Sprintf("%s (%s via %s)", h.display, h.id.name, h.via)
	}
	return h.display
}
