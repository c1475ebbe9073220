package cfg

import "go/ast"

// The worklist dataflow solver. A Flow describes one forward analysis:
// the entry fact, the lattice operations (Join/Equal/Clone), the
// per-node transfer function, and an optional per-edge refinement that
// sees the branch condition an edge follows (how the release rule
// excuses the open's own error path).
//
// Facts must be monotone under Transfer/Edge and the lattice of
// reachable facts finite (the rules use small maps keyed by objects or
// receiver strings), so the fixpoint terminates; a generous iteration
// cap keeps a buggy analysis from hanging the linter.

// Flow is one forward dataflow problem over a Graph.
type Flow[F any] struct {
	// Entry is the fact at function entry.
	Entry F
	// Join merges two facts (may mutate and return a; b is read-only).
	Join func(a, b F) F
	// Equal reports fact equality (fixpoint detection).
	Equal func(a, b F) bool
	// Clone deep-copies a fact.
	Clone func(F) F
	// Transfer applies one node's effect (may mutate and return f).
	Transfer func(n Node, f F) F
	// Edge, when non-nil, refines the fact flowing along e (may mutate
	// and return f; f is already a private clone).
	Edge func(e Edge, f F) F
}

// Node pairs an AST node with the block it executes in, so transfer
// functions can tell a loop-head evaluation from a straight-line one
// if they care.
type Node struct {
	N     ast.Node
	Block *Block
}

// Solve runs fl to fixpoint and returns the fact at each reachable
// block's entry. Callers re-walk a block's nodes with Transfer to
// recover facts at interior points (see Walk).
func Solve[F any](g *Graph, fl Flow[F]) map[*Block]F {
	in := make(map[*Block]F, len(g.Blocks))
	in[g.Entry] = fl.Clone(fl.Entry)
	work := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	// Each pop applies one block; the cap bounds total work far above
	// anything a real function needs.
	budget := 64 * (len(g.Blocks) + 1)
	for len(work) > 0 && budget > 0 {
		budget--
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := fl.Clone(in[blk])
		for _, n := range blk.Nodes {
			out = fl.Transfer(Node{N: n, Block: blk}, out)
		}
		for _, e := range blk.Succs {
			f := fl.Clone(out)
			if fl.Edge != nil {
				f = fl.Edge(e, f)
			}
			prev, ok := in[e.To]
			var next F
			if !ok {
				next = f
			} else {
				next = fl.Join(fl.Clone(prev), f)
			}
			if !ok || !fl.Equal(prev, next) {
				in[e.To] = next
				if !queued[e.To] {
					queued[e.To] = true
					work = append(work, e.To)
				}
			}
		}
	}
	return in
}

// Walk replays fl's transfer through each reachable block from the
// solved entry facts, calling visit with the fact in force just before
// every node. Rules use it to check facts at returns and exits.
func Walk[F any](g *Graph, fl Flow[F], in map[*Block]F, visit func(n Node, before F)) {
	for _, blk := range g.Blocks {
		f, ok := in[blk]
		if !ok || !blk.Live {
			continue
		}
		cur := fl.Clone(f)
		for _, n := range blk.Nodes {
			visit(Node{N: n, Block: blk}, cur)
			cur = fl.Transfer(Node{N: n, Block: blk}, cur)
		}
	}
}

// ExitFacts returns, for every reachable block with an edge to exit,
// the fact after the block's last node together with the edge that
// leaves it. Return edges and panic edges are distinguished by Kind.
type ExitFact[F any] struct {
	Block *Block
	Edge  Edge
	Fact  F
}

// Exits computes the facts flowing into the exit block, one per
// exiting edge.
func Exits[F any](g *Graph, fl Flow[F], in map[*Block]F) []ExitFact[F] {
	var out []ExitFact[F]
	for _, blk := range g.Blocks {
		f, ok := in[blk]
		if !ok || !blk.Live {
			continue
		}
		hasExit := false
		for _, e := range blk.Succs {
			if e.To == g.Exit {
				hasExit = true
			}
		}
		if !hasExit {
			continue
		}
		cur := fl.Clone(f)
		for _, n := range blk.Nodes {
			cur = fl.Transfer(Node{N: n, Block: blk}, cur)
		}
		for _, e := range blk.Succs {
			if e.To == g.Exit {
				out = append(out, ExitFact[F]{Block: blk, Edge: e, Fact: fl.Clone(cur)})
			}
		}
	}
	return out
}
