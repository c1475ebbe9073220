package rtree

import (
	"math"
	"slices"

	"spatialtf/internal/geom"
)

// BulkLoad builds a packed R-tree over items using the Sort-Tile-
// Recursive algorithm (Leutenegger et al., cited as [13] in the paper).
// STR is the "cluster subtrees" primitive of the paper's parallel R-tree
// creation: items are sorted by X centroid, cut into vertical slices,
// each slice sorted by Y, and packed into full leaves; upper levels are
// packed the same way over node centroids.
//
// items is reordered in place. maxEntries 0 selects DefaultMaxEntries.
func BulkLoad(items []Item, maxEntries int) *Tree {
	t := New(maxEntries)
	if len(items) == 0 {
		return t
	}
	leaves := packLeaves(items, t.maxEntries)
	root, height := packUpward(leaves, t.maxEntries)
	t.root = root
	t.height = height
	t.size = len(items)
	return t
}

// packLeaves groups items into packed leaf nodes via STR ordering.
func packLeaves(items []Item, maxEntries int) []*node {
	strSortItems(items, maxEntries)
	var leaves []*node
	start := 0
	for _, size := range groupSizes(len(items), maxEntries) {
		leaf := newNode(true, size)
		for _, it := range items[start : start+size] {
			leaf.pushLeaf(it.MBR, it.ID)
		}
		leaves = append(leaves, leaf)
		start += size
	}
	return leaves
}

// groupSizes splits n entries into ceil(n/maxEntries) groups of nearly
// equal size, so no group underflows the 40 % minimum occupancy (a naive
// "fill to maxEntries" packing would leave a possibly near-empty final
// node, breaking the R-tree occupancy invariant).
func groupSizes(n, maxEntries int) []int {
	if n == 0 {
		return nil
	}
	groups := (n + maxEntries - 1) / maxEntries
	per := n / groups
	rem := n % groups
	sizes := make([]int, groups)
	for i := range sizes {
		sizes[i] = per
		if i < rem {
			sizes[i]++
		}
	}
	return sizes
}

// cmpFloat orders two float64 keys for slices.SortFunc (strict weak
// ordering; the centroid keys are always finite here).
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// strSortItems orders items by the STR tiling: primary sort on X
// centroid, slice into ceil(sqrt(n/M)) vertical strips, then sort each
// strip on Y centroid.
func strSortItems(items []Item, maxEntries int) {
	n := len(items)
	leafCount := (n + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	if sliceCount < 1 {
		sliceCount = 1
	}
	slices.SortFunc(items, func(a, b Item) int {
		return cmpFloat(a.MBR.Center().X, b.MBR.Center().X)
	})
	sliceLen := sliceCount * maxEntries
	for start := 0; start < n; start += sliceLen {
		end := start + sliceLen
		if end > n {
			end = n
		}
		slices.SortFunc(items[start:end], func(a, b Item) int {
			return cmpFloat(a.MBR.Center().Y, b.MBR.Center().Y)
		})
	}
}

// packUpward builds internal levels over nodes until one root remains,
// returning the root and total height (the input nodes are at level 1 +
// their own internal height; callers pass leaves, so height counts from
// 1).
func packUpward(level []*node, maxEntries int) (*node, int) {
	height := 1
	for len(level) > 1 {
		level = packLevel(level, maxEntries)
		height++
	}
	return level[0], height
}

// packLevel groups the nodes of one level into parents using the same
// STR ordering over node-MBR centroids.
func packLevel(nodes []*node, maxEntries int) []*node {
	n := len(nodes)
	parentCount := (n + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(parentCount))))
	if sliceCount < 1 {
		sliceCount = 1
	}
	mbrs := make([]geom4, len(nodes))
	for i, nd := range nodes {
		m := nd.mbr()
		mbrs[i] = geom4{nd, m.Center().X, m.Center().Y, m}
	}
	slices.SortFunc(mbrs, func(a, b geom4) int { return cmpFloat(a.cx, b.cx) })
	sliceLen := sliceCount * maxEntries
	for start := 0; start < n; start += sliceLen {
		end := start + sliceLen
		if end > n {
			end = n
		}
		slices.SortFunc(mbrs[start:end], func(a, b geom4) int { return cmpFloat(a.cy, b.cy) })
	}
	var parents []*node
	start := 0
	for _, size := range groupSizes(n, maxEntries) {
		p := newNode(false, size)
		for _, g := range mbrs[start : start+size] {
			p.pushChild(g.m, g.n)
		}
		parents = append(parents, p)
		start += size
	}
	return parents
}

// geom4 carries a node with its centroid during level packing.
type geom4 struct {
	n      *node
	cx, cy float64
	m      geom.MBR
}
