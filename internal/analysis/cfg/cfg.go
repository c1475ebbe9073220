// Package cfg builds control-flow graphs over go/ast function bodies
// and solves forward dataflow problems on them with a worklist solver.
// It is the engine under the interprocedural spatiallint rules: the
// paper's lifecycle contracts (start–fetch–close pairing, bounded
// candidate arrays, parallel subtrees that must not leak workers) are
// path-sensitive properties, and the per-function AST walks of the
// first-generation rules could not see through branches, loops, or
// calls. Everything here is stdlib-only, like the rest of the suite.
//
// A Graph is a set of basic Blocks. Each block holds the statements and
// condition expressions it executes, in order; edges carry the branch
// condition they follow (the true or false leg of an if or for), so
// analyses can refine facts per branch. Control constructs covered:
// if/else, for (including bare `for {}`), range, switch/type switch
// with fallthrough, select (with and without default), labeled break
// and continue, goto, return, and panic — a panic call ends its block
// with an edge to the synthetic exit, so facts live at a panic are
// visible to exit checks that want them, distinguishable by edge kind.
// Defer statements appear both as in-block nodes (the registration
// point) and on Graph.Defers (the set that runs at every exit).
package cfg

import (
	"go/ast"
	"go/token"
)

// EdgeKind classifies how control reaches an edge's target.
type EdgeKind int

const (
	// EdgeFlow is ordinary sequential or branch flow.
	EdgeFlow EdgeKind = iota
	// EdgeReturn leads to the exit block from a return statement.
	EdgeReturn
	// EdgePanic leads to the exit block from a panic call.
	EdgePanic
)

// Edge is one directed control-flow edge. When Cond is non-nil the
// edge is the Branch leg of that condition (the true or false arm of
// an if, or the taken/exhausted legs of a loop condition).
type Edge struct {
	To     *Block
	Cond   ast.Expr
	Branch bool
	Kind   EdgeKind
}

// Block is one basic block: nodes that execute in order with no
// internal control transfer. Nodes are statements plus the condition
// expressions evaluated in the block (if/for conditions, switch tags,
// range operands), so transfer functions observe every evaluation.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []Edge
	// Live marks blocks reachable from entry; dead blocks (code after
	// an unconditional return) keep their shape but are skipped by the
	// solver.
	Live bool
}

// Graph is the CFG of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Defers lists every defer statement in the body, in syntactic
	// order. Deferred work runs at every exit; rules that model it
	// (pin release, cursor close) scan this list.
	Defers []*ast.DeferStmt
}

// Build constructs the CFG of body. A nil body yields a two-block
// graph (entry → exit).
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: map[string]*labelTarget{}}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Fall off the end of the body: an implicit return.
	b.edgeTo(b.g.Exit, EdgeReturn)
	b.patchGotos()
	b.markLive()
	return b.g
}

// labelTarget records where a label's break/continue/goto lead.
type labelTarget struct {
	brk   *Block // filled when the labeled loop/switch/select is built
	cont  *Block
	start *Block // goto target: where the labeled statement begins
}

type pendingGoto struct {
	from  *Block
	label string
	pos   token.Pos
}

type builder struct {
	g   *Graph
	cur *Block // nil once the current path is terminated

	// Innermost break/continue targets (continue: loops only).
	breakStack    []*Block
	continueStack []*Block

	labels map[string]*labelTarget
	gotos  []pendingGoto

	// pendingLabel is set while building the statement a label names,
	// so its loop/switch targets register under the label.
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edgeTo links cur → to (no-op on a terminated path).
func (b *builder) edgeTo(to *Block, kind EdgeKind) {
	if b.cur == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs, Edge{To: to, Kind: kind})
}

// branchTo links cur → to under cond/branch.
func (b *builder) branchTo(to *Block, cond ast.Expr, branch bool) {
	if b.cur == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs, Edge{To: to, Cond: cond, Branch: branch})
}

// add appends a node to the current block, reviving a terminated path
// into a fresh (dead) block so trailing statements still get a home.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// takeLabel consumes the pending label for a breakable construct.
func (b *builder) takeLabel() *labelTarget {
	if b.pendingLabel == "" {
		return nil
	}
	lt := b.labels[b.pendingLabel]
	b.pendingLabel = ""
	return lt
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lt := &labelTarget{}
		b.labels[s.Label.Name] = lt
		// A goto to the label lands where the statement begins; start a
		// fresh block so the target is well defined.
		start := b.newBlock()
		b.edgeTo(start, EdgeFlow)
		b.cur = start
		lt.start = start
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
		// A label on a plain statement still allows `break L` only for
		// loops/switches; nothing more to do here.

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlock := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.branchTo(then, s.Cond, true)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edgeTo(after, EdgeFlow)
		if s.Else != nil {
			els := b.newBlock()
			condBlock.Succs = append(condBlock.Succs, Edge{To: els, Cond: s.Cond, Branch: false})
			b.cur = els
			b.stmt(s.Else)
			b.edgeTo(after, EdgeFlow)
		} else {
			condBlock.Succs = append(condBlock.Succs, Edge{To: after, Cond: s.Cond, Branch: false})
		}
		b.cur = after

	case *ast.ForStmt:
		lt := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		if lt != nil {
			lt.brk, lt.cont = after, post
		}
		b.edgeTo(head, EdgeFlow)
		b.cur = head
		body := b.newBlock()
		if s.Cond != nil {
			b.add(s.Cond)
			b.branchTo(body, s.Cond, true)
			b.branchTo(after, s.Cond, false)
		} else {
			// `for {}`: after is reachable only via break.
			b.edgeTo(body, EdgeFlow)
		}
		b.breakStack = append(b.breakStack, after)
		b.continueStack = append(b.continueStack, post)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edgeTo(post, EdgeFlow)
		b.breakStack = b.breakStack[:len(b.breakStack)-1]
		b.continueStack = b.continueStack[:len(b.continueStack)-1]
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edgeTo(head, EdgeFlow)
		}
		b.cur = after

	case *ast.RangeStmt:
		lt := b.takeLabel()
		b.add(s.X)
		head := b.newBlock()
		after := b.newBlock()
		if lt != nil {
			lt.brk, lt.cont = after, head
		}
		b.edgeTo(head, EdgeFlow)
		b.cur = head
		// The RangeStmt node itself marks the per-iteration key/value
		// binding; it lives in the head so every iteration sees it.
		b.add(s)
		body := b.newBlock()
		b.edgeTo(body, EdgeFlow)
		b.edgeTo(after, EdgeFlow)
		b.breakStack = append(b.breakStack, after)
		b.continueStack = append(b.continueStack, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edgeTo(head, EdgeFlow)
		b.breakStack = b.breakStack[:len(b.breakStack)-1]
		b.continueStack = b.continueStack[:len(b.continueStack)-1]
		b.cur = after

	case *ast.SwitchStmt:
		lt := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.buildCases(s.Body.List, lt, nil)

	case *ast.TypeSwitchStmt:
		lt := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.buildCases(s.Body.List, lt, nil)

	case *ast.SelectStmt:
		lt := b.takeLabel()
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		after := b.newBlock()
		if lt != nil {
			lt.brk = after
		}
		b.breakStack = append(b.breakStack, after)
		hasClause := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			hasClause = true
			blk := b.newBlock()
			head.Succs = append(head.Succs, Edge{To: blk, Kind: EdgeFlow})
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edgeTo(after, EdgeFlow)
		}
		b.breakStack = b.breakStack[:len(b.breakStack)-1]
		if !hasClause {
			// select {} blocks forever: after is unreachable.
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.g.Exit, EdgeReturn)
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edgeTo(b.g.Exit, EdgePanic)
			b.cur = nil
		}

	default:
		// Assign, Decl, IncDec, Send, Go, Empty: straight-line nodes.
		b.add(s)
	}
}

// buildCases shares the switch/type-switch clause wiring. The entry
// block fans out to each case; fallthrough chains a case body into the
// next clause's body; a missing default adds the fall-past edge.
func (b *builder) buildCases(clauses []ast.Stmt, lt *labelTarget, _ *Block) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	if lt != nil {
		lt.brk = after
	}
	b.breakStack = append(b.breakStack, after)
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		head.Succs = append(head.Succs, Edge{To: blocks[i], Kind: EdgeFlow})
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fellThrough := false
		for _, s := range cc.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fellThrough = true
				if i+1 < len(blocks) {
					b.edgeTo(blocks[i+1], EdgeFlow)
				}
				b.cur = nil
				break
			}
			b.stmt(s)
		}
		if !fellThrough {
			b.edgeTo(after, EdgeFlow)
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, Edge{To: after, Kind: EdgeFlow})
	}
	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.cur = after
}

func (b *builder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		var to *Block
		if s.Label != nil {
			if lt := b.labels[s.Label.Name]; lt != nil {
				to = lt.brk
			}
		} else if len(b.breakStack) > 0 {
			to = b.breakStack[len(b.breakStack)-1]
		}
		if to != nil {
			b.edgeTo(to, EdgeFlow)
		}
		b.cur = nil
	case token.CONTINUE:
		var to *Block
		if s.Label != nil {
			if lt := b.labels[s.Label.Name]; lt != nil {
				to = lt.cont
			}
		} else if len(b.continueStack) > 0 {
			to = b.continueStack[len(b.continueStack)-1]
		}
		if to != nil {
			b.edgeTo(to, EdgeFlow)
		}
		b.cur = nil
	case token.GOTO:
		if s.Label != nil && b.cur != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name, pos: s.Pos()})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled by buildCases; a stray fallthrough terminates.
		b.cur = nil
	}
}

// patchGotos resolves goto edges once every label's start block exists
// (forward gotos reference labels defined later).
func (b *builder) patchGotos() {
	for _, g := range b.gotos {
		if lt := b.labels[g.label]; lt != nil && lt.start != nil {
			g.from.Succs = append(g.from.Succs, Edge{To: lt.start, Kind: EdgeFlow})
		}
	}
}

func (b *builder) markLive() {
	seen := make([]bool, len(b.g.Blocks))
	stack := []*Block{b.g.Entry}
	seen[b.g.Entry.Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		blk.Live = true
		for _, e := range blk.Succs {
			if !seen[e.To.Index] {
				seen[e.To.Index] = true
				stack = append(stack, e.To)
			}
		}
	}
}

// isPanicCall reports whether e is a call to the builtin panic. (A
// shadowed local named panic would fool this; nobody shadows panic.)
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
