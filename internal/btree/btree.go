// Package btree implements an in-memory B+-tree over byte-string keys.
// It is the substrate beneath the linear quadtree index: tessellated
// tile codes (with rowid suffixes) are the keys, exactly as Oracle
// Spatial stores quadtree tiles in a B-tree via the "create B-tree
// indexes on the codes for the tiles" step of the paper's §5.
//
// The tree supports point lookups, ordered range scans, deletion, a
// sorted bulk load (used by the parallel index build, which sorts
// partitions concurrently and merges), and is safe for concurrent
// readers with a single writer excluded by an RWMutex.
package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// degree is the maximum number of keys per node. 64 keeps nodes around
// a cache-friendly few KiB for short tile-code keys.
const degree = 64

// ErrNotFound is returned by Get and Delete for absent keys.
var ErrNotFound = errors.New("btree: key not found")

// Tree is a B+-tree mapping byte-string keys to byte-string values.
// Keys are unique; Insert overwrites.
type Tree struct {
	mu   sync.RWMutex
	root *node
	size int
}

// node is either a leaf (children nil, vals parallel to keys) or an
// internal node (len(children) == len(keys)+1, vals nil).
type node struct {
	keys     [][]byte
	vals     [][]byte
	children []*node
	next     *node // leaf-level chain for range scans
}

func (n *node) isLeaf() bool { return n.children == nil }

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// search returns the index of the first key in n >= key.
func search(n *node, key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.isLeaf() {
		i := search(n, key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			i++
		}
		n = n.children[i]
	}
	i := search(n, key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		return n.vals[i], nil
	}
	return nil, ErrNotFound
}

// Insert stores value under key, overwriting any existing entry. The
// key and value slices are retained; callers must not mutate them.
func (t *Tree) Insert(key, value []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	promotedKey, newChild, added := insert(t.root, key, value)
	if added {
		t.size++
	}
	if newChild != nil {
		t.root = &node{
			keys:     [][]byte{promotedKey},
			children: []*node{t.root, newChild},
		}
	}
}

// insert adds key/value under n. If n splits, it returns the key to
// promote and the new right sibling. added reports whether the key was
// new (vs. an overwrite).
func insert(n *node, key, value []byte) (promoted []byte, right *node, added bool) {
	if n.isLeaf() {
		i := search(n, key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			n.vals[i] = value
			return nil, nil, false
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = value
		if len(n.keys) <= degree {
			return nil, nil, true
		}
		pk, rn := splitLeaf(n)
		return pk, rn, true
	}
	i := search(n, key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		i++
	}
	promo, newChild, childAdded := insert(n.children[i], key, value)
	if newChild == nil {
		return nil, nil, childAdded
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = promo
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = newChild
	if len(n.keys) <= degree {
		return nil, nil, childAdded
	}
	pk, rn := splitInternal(n)
	return pk, rn, childAdded
}

// splitLeaf splits an over-full leaf and returns (separator, right).
func splitLeaf(n *node) ([]byte, *node) {
	mid := len(n.keys) / 2
	right := &node{
		keys: append([][]byte(nil), n.keys[mid:]...),
		vals: append([][]byte(nil), n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	n.next = right
	// In a B+-tree the separator is the first key of the right leaf;
	// it stays in the leaf as well.
	return right.keys[0], right
}

// splitInternal splits an over-full internal node; the middle key moves
// up and does not remain in either half.
func splitInternal(n *node) ([]byte, *node) {
	mid := len(n.keys) / 2
	promo := n.keys[mid]
	right := &node{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return promo, right
}

// Delete removes key. It uses lazy deletion at the leaf (no rebalancing);
// node occupancy degrades only under adversarial delete-heavy workloads,
// which the spatial index maintenance path (delete + reinsert of a few
// tiles per DML) does not produce.
func (t *Tree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for !n.isLeaf() {
		i := search(n, key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			i++
		}
		n = n.children[i]
	}
	i := search(n, key)
	if i >= len(n.keys) || !bytes.Equal(n.keys[i], key) {
		return ErrNotFound
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size--
	return nil
}

// AscendRange calls fn for each entry with lo <= key < hi in ascending
// key order, stopping early if fn returns false. A nil hi means +inf.
func (t *Tree) AscendRange(lo, hi []byte, fn func(key, value []byte) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.isLeaf() {
		i := search(n, lo)
		if i < len(n.keys) && bytes.Equal(n.keys[i], lo) {
			i++
		}
		n = n.children[i]
	}
	for n != nil {
		for i := search(n, lo); i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		lo = nil // after the first leaf, take every key
	}
}

// AscendPrefix calls fn for each entry whose key begins with prefix, in
// ascending order. The quadtree query path uses it to fetch all entries
// under a tile code.
func (t *Tree) AscendPrefix(prefix []byte, fn func(key, value []byte) bool) {
	hi := prefixUpperBound(prefix)
	t.AscendRange(prefix, hi, fn)
}

// prefixUpperBound returns the smallest key greater than every key with
// the given prefix, or nil if there is none (all-0xFF prefix).
func prefixUpperBound(prefix []byte) []byte {
	hi := append([]byte(nil), prefix...)
	for i := len(hi) - 1; i >= 0; i-- {
		if hi[i] != 0xFF {
			hi[i]++
			return hi[:i+1]
		}
	}
	return nil
}

// Ascend iterates the whole tree in order.
func (t *Tree) Ascend(fn func(key, value []byte) bool) {
	t.AscendRange(nil, nil, fn)
}

// Stats describes tree shape for the index-metadata report.
type Stats struct {
	Entries int
	Leaves  int
	Height  int
}

// Stats returns shape statistics.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{Entries: t.size, Height: 1}
	n := t.root
	for !n.isLeaf() {
		s.Height++
		n = n.children[0]
	}
	for l := n; l != nil; l = l.next {
		s.Leaves++
	}
	return s
}

// Validate checks structural invariants (key order within and across
// nodes, child counts) and returns the first violation. Tests call it
// after mutation storms.
func (t *Tree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	count := 0
	if err := validateNode(t.root, nil, nil, &count); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d keys reachable", t.size, count)
	}
	// Leaf chain must be globally sorted.
	n := t.root
	for !n.isLeaf() {
		n = n.children[0]
	}
	var prev []byte
	for l := n; l != nil; l = l.next {
		for _, k := range l.keys {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				return fmt.Errorf("btree: leaf chain out of order at %x", k)
			}
			prev = k
		}
	}
	return nil
}

func validateNode(n *node, lo, hi []byte, count *int) error {
	for i, k := range n.keys {
		if i > 0 && bytes.Compare(n.keys[i-1], k) >= 0 {
			return fmt.Errorf("btree: node keys out of order at %x", k)
		}
		if lo != nil && bytes.Compare(k, lo) < 0 {
			return fmt.Errorf("btree: key %x below lower bound %x", k, lo)
		}
		if hi != nil && bytes.Compare(k, hi) > 0 {
			return fmt.Errorf("btree: key %x above upper bound %x", k, hi)
		}
	}
	if n.isLeaf() {
		if len(n.vals) != len(n.keys) {
			return fmt.Errorf("btree: leaf has %d keys, %d vals", len(n.keys), len(n.vals))
		}
		*count += len(n.keys)
		return nil
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("btree: internal node has %d keys, %d children", len(n.keys), len(n.children))
	}
	for i, c := range n.children {
		var clo, chi []byte
		if i > 0 {
			clo = n.keys[i-1]
		} else {
			clo = lo
		}
		if i < len(n.keys) {
			chi = n.keys[i]
		} else {
			chi = hi
		}
		if err := validateNode(c, clo, chi, count); err != nil {
			return err
		}
	}
	return nil
}
