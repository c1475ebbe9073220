package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// LockDiscipline forbids holding a sync.Mutex/RWMutex across an
// operation that can block indefinitely on a peer: a channel send or
// receive, a select without a default clause, a cursor Fetch through an
// interface or the wire client (a network round trip), or a wire
// write/flush. A goroutine parked on a channel while holding a mutex is
// the deadlock shape the PR 2 review caught in the geometry cache; on
// the server it also turns one slow client into a global stall.
//
// The rule is path-sensitive (it runs on the CFG, so a lock released on
// one branch is not "held" on the other) and interprocedural: via the
// module lock summaries, a mutex held across a call into a function
// that transitively blocks — or that re-acquires the very lock already
// held — is flagged too. Function literals are separate scopes with
// fresh lock state, whether they are spawned by `go`, deferred, or
// handed to tablefunc.Parallel as factory callbacks: the goroutine that
// eventually runs them does not inherit the spawner's locks.
//
// The same replay folds every acquisition of a globally named lock
// under another into one module-wide lock-order graph — an edge a→b
// means some path acquires b while holding a — and each cycle in it is
// reported as a potential deadlock, with the acquisition sites on both
// sides. Two goroutines walking a cycle from opposite ends block
// forever; the classic shape is pool→WAL in one function and WAL→pool
// in another.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no sync.Mutex/RWMutex may be held across a blocking operation or a re-acquisition of itself, and lock order must be acyclic",
	Run:  runLockDiscipline,
}

// syncLockMethod resolves sel to a sync.Mutex/RWMutex lock or unlock
// method, returning the receiver key and method name.
func syncLockMethod(pkg *Pkg, sel *ast.SelectorExpr) (recvKey, method string, ok bool) {
	recv, fn := selectorObj(pkg.Info, sel)
	if fn == nil || recv == nil || pkgPathOf(fn) != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return exprString(recv), fn.Name(), true
	}
	return "", "", false
}

func runLockDiscipline(pass *Pass) []Diag {
	return pass.Mod.lockFindings()[pass.Pkg]
}

// lockFindings replays the lock scanner once over every function scope
// of the module, collecting each package's findings and the order
// graph together, then reports each cycle of the graph once, in the
// package that owns its first edge.
func (m *Module) lockFindings() map[*Pkg][]Diag {
	m.lockOnce.Do(func() {
		m.lockDiags = make(map[*Pkg][]Diag)
		order := lockGraph{}
		for _, pkg := range m.pkgs {
			for _, f := range pkg.Files {
				for _, body := range funcScopes(f) {
					m.lockDiags[pkg] = append(m.lockDiags[pkg], lockDisciplineScope(pkg, m, f, body, order)...)
				}
			}
		}
		for _, c := range order.cycles() {
			m.lockDiags[c[0].pkg] = append(m.lockDiags[c[0].pkg], cycleDiag(c))
		}
	})
	return m.lockDiags
}

// lockDisciplineScope solves the may-held flow over one function scope
// of file f, reports blocking operations and same-lock re-acquisitions
// under held locks, and adds the scope's acquisitions to order.
func lockDisciplineScope(pkg *Pkg, mod *Module, f *ast.File, body *ast.BlockStmt, order lockGraph) []Diag {
	g := mod.graphFor(body)
	sc := newLockScanner(pkg, mod, body)
	var diags []Diag
	ev := &lockEvents{
		blocking: func(pos token.Pos, what, via string, before lockFact) {
			msg := what
			if via != "" {
				msg = "call into " + via + " (can block: " + what + ")"
			}
			for _, k := range sortedFactKeys(before) {
				h := before[k]
				// Only locks acquired in this scope gate blocking ops:
				// pin-style locks leaked by callees are held across
				// fetches by design (that is what a pin is for).
				if !h.direct() {
					continue
				}
				diags = append(diags, diag(pkg, "lockdiscipline", pos,
					"%s while %s is held (locked at line %d): release the lock before blocking, or hand the work to an unlocked region",
					msg, h.display, pkg.Fset.Position(h.pos).Line))
			}
		},
		acquire: func(pos token.Pos, id lockIdent, display string, write bool, via string, before lockFact) {
			for _, k := range sortedFactKeys(before) {
				h := before[k]
				if id.global && h.id.global && h.id.name != id.name {
					order.add(&lockEdge{
						from: h.id.name, to: id.name,
						pkg: pkg, fn: scopeName(f, body), pos: pos, heldPos: h.pos, via: via,
					})
				}
				if h.id != id {
					continue
				}
				// Read-locking the same instance again while read-held
				// is left to taste; everything else — write anywhere,
				// or a second instance of the same lock class whose
				// order nothing fixes — can deadlock.
				if !write && !h.write && h.display == display {
					continue
				}
				lockName := display
				if id.global {
					lockName = id.name
				}
				if via == "" {
					diags = append(diags, diag(pkg, "lockdiscipline", pos,
						"%s acquired while %s is already held (locked at line %d): re-acquisition can deadlock",
						lockName, lockHeldPhrase(h), pkg.Fset.Position(h.pos).Line))
				} else {
					diags = append(diags, diag(pkg, "lockdiscipline", pos,
						"call into %s acquires %s while %s is already held (locked at line %d): re-acquisition can deadlock",
						via, lockName, lockHeldPhrase(h), pkg.Fset.Position(h.pos).Line))
				}
			}
		},
	}
	sc.replay(g, ev)
	return diags
}

// lockEdge is one observed ordering: `to` acquired at pos (in pkg,
// inside fn) while `from` was held, the holder having locked at
// heldPos. via names the callee chain when the acquisition is
// transitive.
type lockEdge struct {
	from, to string
	pkg      *Pkg
	fn       string
	pos      token.Pos
	heldPos  token.Pos
	via      string
}

// lockGraph is the module-wide order graph keyed on global lock
// identities, from → to → edge. Only the first edge observed for each
// (from,to) pair is kept; iteration everywhere is sorted, so reports
// are deterministic.
type lockGraph map[string]map[string]*lockEdge

func (g lockGraph) add(e *lockEdge) {
	if g[e.from] == nil {
		g[e.from] = make(map[string]*lockEdge)
	}
	if _, ok := g[e.from][e.to]; !ok {
		g[e.from][e.to] = e
	}
}

// cycles returns one shortest cycle per strongly connected component
// that has one, starting at the component's smallest lock. One
// representative per component keeps a tangled component from producing
// a report storm; fixing the reported cycle and re-running surfaces the
// next one. Two locks share a component when each reaches the other.
func (g lockGraph) cycles() [][]*lockEdge {
	reach := make(map[string]map[string]bool, len(g))
	for _, n := range sortedKeys(g) {
		reach[n] = g.reachable(n)
	}
	reported := make(map[string]bool)
	var out [][]*lockEdge
	for _, n := range sortedKeys(reach) {
		if reported[n] || !reach[n][n] {
			continue
		}
		for m := range reach[n] {
			if reach[m][n] {
				reported[m] = true
			}
		}
		out = append(out, g.shortestCycle(n))
	}
	return out
}

// reachable returns every lock some path of edges leads to from start.
func (g lockGraph) reachable(start string) map[string]bool {
	seen := make(map[string]bool)
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for to := range g[cur] {
			if !seen[to] {
				seen[to] = true
				queue = append(queue, to)
			}
		}
	}
	return seen
}

// shortestCycle breadth-first searches from start back to itself and
// returns the cycle's edges in order, the first leaving start.
func (g lockGraph) shortestCycle(start string) []*lockEdge {
	prev := make(map[string]*lockEdge)
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, to := range sortedKeys(g[cur]) {
			e := g[cur][to]
			if to == start {
				path := []*lockEdge{e}
				for n := cur; n != start; n = prev[n].from {
					path = append(path, prev[n])
				}
				slices.Reverse(path)
				return path
			}
			if _, seen := prev[to]; !seen {
				prev[to] = e
				queue = append(queue, to)
			}
		}
	}
	return nil
}

// cycleDiag reports one lock-order cycle at the site of its first edge.
func cycleDiag(c []*lockEdge) Diag {
	var path strings.Builder
	var sides []string
	for _, e := range c {
		path.WriteString(e.from + " → ")
		side := fmt.Sprintf("%s acquired at %s (in %s) while %s is held (locked at line %d)",
			e.to, shortPos(e.pkg, e.pos), e.fn, e.from, e.pkg.Fset.Position(e.heldPos).Line)
		if e.via != "" {
			side += " via " + e.via
		}
		sides = append(sides, side)
	}
	path.WriteString(c[0].from)
	return diag(c[0].pkg, "lockdiscipline", c[0].pos,
		"potential deadlock: lock order cycle %s: %s", path.String(), strings.Join(sides, "; "))
}

// scopeName names a function scope of file f for reports: the enclosing
// FuncDecl's name, or "func literal in <decl>" for a FuncLit body.
func scopeName(f *ast.File, body *ast.BlockStmt) string {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || body.Pos() < fd.Pos() || fd.End() < body.End() {
			continue
		}
		if fd.Body == body {
			return fd.Name.Name
		}
		return "func literal in " + fd.Name.Name
	}
	return "func literal"
}

// blockingCall classifies calls that can block on a peer: a Fetch
// dispatched through an interface (the table-function contract) or the
// wire client's cursor (a network round trip), wire.Write*/handshake
// functions, and bufio.Writer Flush/Write (socket writes under the
// wire protocol). A concrete in-memory Fetch is not blocking: it is a
// local batch copy.
func blockingCall(pkg *Pkg, call *ast.CallExpr, sel *ast.SelectorExpr) (string, bool) {
	recv, fn := selectorObj(pkg.Info, sel)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if name == "Fetch" && fn.Signature().Recv() != nil {
		_, iface := fn.Signature().Recv().Type().Underlying().(*types.Interface)
		if iface || fromPkg(fn, "internal/wire") || fromPkg(fn, "wire") {
			return "cursor Fetch (network round trip)", true
		}
	}
	if kind, ok := blockingFunc(fn); ok {
		return kind, true
	}
	if recv != nil && isBufioWriter(pkg.Info, recv) &&
		(name == "Flush" || strings.HasPrefix(name, "Write")) {
		return "bufio.Writer." + name + " (socket write)", true
	}
	return "", false
}

// blockingFunc classifies package-level wire functions that move bytes
// to or from a peer.
func blockingFunc(fn *types.Func) (string, bool) {
	if !fromPkg(fn, "internal/wire") && !fromPkg(fn, "wire") {
		return "", false
	}
	name := fn.Name()
	if strings.HasPrefix(name, "Write") || name == "ExpectMagic" || name == "ReadFrame" {
		return "wire " + name, true
	}
	return "", false
}

// isBufioWriter reports whether e's type is *bufio.Writer.
func isBufioWriter(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "bufio" && named.Obj().Name() == "Writer"
}
