package analysis

// Per-function lock summaries, folded to a module-wide fixpoint by
// BuildModule alongside the release facts. These are
// what make lockdiscipline interprocedural: a caller
// holding a mutex sees through its callees to the locks they acquire,
// the operations they block on, and the locks they leave held (the
// Pin/Unpin pattern).

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strconv"
	"strings"

	"spatialtf/internal/analysis/cfg"
)

// TransAcq records that a function acquires a lock directly or through
// a callee chain (Via empty for direct, "g → h" for transitive).
type TransAcq struct {
	Write bool
	Pos   token.Pos
	Via   string
}

// LeakInfo records a lock still held at some return of the function —
// rtree.Pin leaving pinMu read-held is the canonical case.
type LeakInfo struct {
	Write bool
	Via   string
}

// BlockInfo records that a function can block indefinitely on a peer:
// a channel op, select without default, Fetch round trip, or wire
// write, directly (Via empty) or through callees.
type BlockInfo struct {
	What string
	Pos  token.Pos
	Via  string
}

// updateLockFacts recomputes the lock summary of s from its CFG and
// the current summaries of its callees; reports a change.
func updateLockFacts(s *FuncSummary, m *Module) bool {
	g := m.graphFor(s.Decl.Body)
	sc := newLockScanner(s.Pkg, m, s.Decl.Body)

	trans := make(map[string]TransAcq)
	rel := make(map[string]bool)
	var blocking *BlockInfo
	ev := &lockEvents{
		acquire: func(pos token.Pos, id lockIdent, _ string, write bool, via string, _ lockFact) {
			if !id.global {
				return
			}
			if old, ok := trans[id.name]; !ok || (old.Via != "" && via == "") {
				trans[id.name] = TransAcq{Write: write, Pos: pos, Via: via}
			} else if write && !old.Write {
				old.Write = true
				trans[id.name] = old
			}
		},
		blocking: func(pos token.Pos, what, via string, _ lockFact) {
			if blocking == nil {
				blocking = &BlockInfo{What: what, Pos: pos, Via: via}
			}
		},
		release: func(_ token.Pos, id lockIdent, matched bool) {
			if id.global && !matched {
				rel[id.name] = true
			}
		},
	}
	in := sc.replay(g, ev)

	// Leaks: locks still held at some return, minus what the deferred
	// unlocks (including unlocks inside deferred closures) pay off.
	leak := make(map[string]LeakInfo)
	drel := sc.deferredReleaseKeys(g)
	for _, ex := range cfg.Exits(g, sc.flow(), in) {
		if ex.Edge.Kind != cfg.EdgeReturn {
			continue
		}
		for k, h := range ex.Fact {
			if !h.id.global || dischargedAtExit(drel, k, h) {
				continue
			}
			if old, ok := leak[h.id.name]; !ok {
				leak[h.id.name] = LeakInfo{Write: h.write, Via: h.via}
			} else if h.write && !old.Write {
				old.Write = true
				leak[h.id.name] = old
			}
		}
	}

	changed := !maps.Equal(trans, s.TransAcquires) ||
		!maps.Equal(rel, s.LockReleases) ||
		!maps.Equal(leak, s.LockLeaked) ||
		!equalBlockInfo(blocking, s.Blocking)
	if changed {
		s.TransAcquires, s.LockReleases, s.LockLeaked, s.Blocking = trans, rel, leak, blocking
	}
	return changed
}

func equalBlockInfo(a, b *BlockInfo) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// graphFor returns the (cached) CFG of body. Summaries and every
// concurrency rule share one graph per function scope.
func (m *Module) graphFor(body *ast.BlockStmt) *cfg.Graph {
	m.graphMu.Lock()
	defer m.graphMu.Unlock()
	if m.graphs == nil {
		m.graphs = make(map[*ast.BlockStmt]*cfg.Graph)
	}
	if g, ok := m.graphs[body]; ok {
		return g
	}
	g := cfg.Build(body)
	m.graphs[body] = g
	return g
}

// calleeSummaries resolves the summaries a call to fn may execute: the
// function's own summary, or — for a call through an interface declared
// in this module (pager.Space, storage.Cursor, the table-function
// contract) — every module method with the same name and shape, a
// class-hierarchy-lite answer that needs no cross-universe
// types.Implements.
func (m *Module) calleeSummaries(fn *types.Func) []*FuncSummary {
	if m == nil || fn == nil {
		return nil
	}
	if s := m.SummaryOf(fn); s != nil {
		return []*FuncSummary{s}
	}
	sig := fn.Signature()
	if sig.Recv() == nil {
		return nil
	}
	if _, ok := sig.Recv().Type().Underlying().(*types.Interface); !ok {
		return nil
	}
	if fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "spatialtf") {
		return nil
	}
	// Close() error is declared by nearly every module interface
	// (Cursor, TableFunction, pager.File), so shape matching would
	// resolve each interface Close to *every* concrete Close — pulling
	// pager.Store.Close's locking into arbitrary call chains. The
	// precision loss swamps the one real signal (the wire cursor's
	// blocking Close), so Close is resolved only when concrete.
	if fn.Name() == "Close" {
		return nil
	}
	return m.methodIndex()[methodShape(fn)]
}

// methodShape is the name+arity key the interface resolution joins on.
func methodShape(fn *types.Func) string {
	sig := fn.Signature()
	return fn.Name() + "/" + strconv.Itoa(sig.Params().Len()) + "/" + strconv.Itoa(sig.Results().Len())
}

// methodIndex maps method shapes to the module methods that have them.
func (m *Module) methodIndex() map[string][]*FuncSummary {
	m.idxOnce.Do(func() {
		m.mIndex = make(map[string][]*FuncSummary)
		for _, key := range sortedKeys(m.fns) {
			s := m.fns[key]
			if s.Fn.Signature().Recv() == nil {
				continue
			}
			shape := methodShape(s.Fn)
			m.mIndex[shape] = append(m.mIndex[shape], s)
		}
	})
	return m.mIndex
}
