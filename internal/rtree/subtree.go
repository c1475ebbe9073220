package rtree

import (
	"fmt"

	"spatialtf/internal/geom"
	"spatialtf/internal/storage"
)

// NodeRef is a read-only handle on an R-tree node, the unit the
// paper's parallel join distributes: the subtree_root table function of
// §4.1 returns one row per subtree root, and each parallel instance of
// spatial_join joins a pair of NodeRefs.
//
// NodeRefs must only be used while the tree is not being modified.
type NodeRef struct {
	n *node
	// Level of the node, counting leaves as 1.
	level int
}

// IsZero reports whether the handle is empty.
func (r NodeRef) IsZero() bool { return r.n == nil }

// Level returns the node's level (leaves are 1).
func (r NodeRef) Level() int { return r.level }

// IsLeaf reports whether the node is a leaf.
func (r NodeRef) IsLeaf() bool { return r.n.leaf }

// MBR returns the node's bounding rectangle.
func (r NodeRef) MBR() geom.MBR { return r.n.mbr() }

// NumEntries returns the number of slots in the node.
func (r NodeRef) NumEntries() int { return r.n.count() }

// EntryMBR returns the bounding rectangle of slot i.
func (r NodeRef) EntryMBR(i int) geom.MBR { return r.n.rect(i) }

// EntryRects exposes the node's structure-of-arrays rectangle layout:
// slot i's MBR is (xlo[i], ylo[i], xhi[i], yhi[i]). The slices are the
// node's live storage — callers must treat them as read-only and only
// hold them while the tree is pinned or otherwise unmodified. The
// spatial join's plane-sweep primary filter scans these flat arrays
// directly.
func (r NodeRef) EntryRects() (xlo, ylo, xhi, yhi []float64) {
	return r.n.xlo, r.n.ylo, r.n.xhi, r.n.yhi
}

// EntryID returns the rowid in slot i; only meaningful on leaves.
func (r NodeRef) EntryID(i int) storage.RowID { return r.n.ids[i] }

// Child returns the handle of the i-th child; only meaningful on
// internal nodes.
func (r NodeRef) Child(i int) NodeRef {
	return NodeRef{n: r.n.children[i], level: r.level - 1}
}

// Items appends every data item under the node to dst and returns it.
func (r NodeRef) Items(dst []Item) []Item {
	if r.n.leaf {
		for i := 0; i < r.n.count(); i++ {
			dst = append(dst, Item{MBR: r.n.rect(i), ID: r.n.ids[i]})
		}
		return dst
	}
	for i := range r.n.children {
		dst = r.Child(i).Items(dst)
	}
	return dst
}

// String renders the handle for logs (Figure 1 of the paper labels
// subtree roots R11, R12, ...; callers attach their own labels).
func (r NodeRef) String() string {
	if r.n == nil {
		return "NodeRef(nil)"
	}
	kind := "internal"
	if r.n.leaf {
		kind = "leaf"
	}
	return fmt.Sprintf("NodeRef(%s level=%d entries=%d %v)", kind, r.level, r.n.count(), r.n.mbr())
}

// Root returns the handle of the root node.
func (t *Tree) Root() NodeRef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return NodeRef{n: t.root, level: t.height}
}

// SubtreeRoots implements the subtree_root table function of §4.1: it
// descends `descend` levels below the root and returns the roots of the
// subtrees at that level, in left-to-right order. Descending by one
// level in Figure 1's two-level trees yields {R11, R12} and {S11, S12};
// the join then runs over the 4 subtree pairs.
//
// If the tree is too shallow to descend that far, the deepest complete
// level above the leaves is used (descending is capped at height-1 so a
// subtree is never a bare data entry). An empty tree yields no roots.
func (t *Tree) SubtreeRoots(descend int) []NodeRef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.size == 0 {
		return nil
	}
	if descend < 0 {
		descend = 0
	}
	if max := t.height - 1; descend > max {
		descend = max
	}
	level := []NodeRef{{n: t.root, level: t.height}}
	for d := 0; d < descend; d++ {
		next := make([]NodeRef, 0, len(level)*t.maxEntries)
		for _, r := range level {
			for i := range r.n.children {
				next = append(next, r.Child(i))
			}
		}
		level = next
	}
	return level
}

// SubtreeRootsAtLeast returns the shallowest SubtreeRoots expansion with
// at least want roots (or the deepest possible if the tree cannot supply
// that many). The parallel join uses it to pick a decomposition level
// matching the worker count: "we descend both trees as far below as to
// get appropriate number of subtree-joins".
func (t *Tree) SubtreeRootsAtLeast(want int) []NodeRef {
	if want < 1 {
		want = 1
	}
	for d := 0; ; d++ {
		roots := t.SubtreeRoots(d)
		if len(roots) >= want {
			return roots
		}
		// Cannot descend further?
		if d >= t.Height()-1 {
			return roots
		}
	}
}
