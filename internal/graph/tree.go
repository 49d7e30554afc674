package graph

import (
	"fmt"
	"maps"
	"slices"
)

// Tree is a rooted tree maintained incrementally: leaves may be attached and
// detached, and whole subtrees enumerated. CNet(G) and BT(G) are Trees.
//
// Every mutation keeps depths, the per-depth node counts and the sorted
// child lists up to date, so Depth, Height, DepthMap and Children are O(1)
// reads and AddChild costs O(children of the parent).
type Tree struct {
	root   NodeID
	parent map[NodeID]NodeID
	// children holds each node's children ascending. The slices are
	// copy-on-write with len == cap: a mutation stores a fresh slice and
	// never writes into one already handed out, so clones share them.
	children map[NodeID][]NodeID
	depth    map[NodeID]int
	// levels[d] counts the nodes at depth d; the top level is non-empty,
	// so the height is len(levels)-1.
	levels []int
}

// NewTree returns a tree containing only root.
func NewTree(root NodeID) *Tree {
	return &Tree{
		root:     root,
		parent:   make(map[NodeID]NodeID),
		children: map[NodeID][]NodeID{root: nil},
		depth:    map[NodeID]int{root: 0},
		levels:   []int{1},
	}
}

// Root returns the root node.
func (t *Tree) Root() NodeID { return t.root }

// Contains reports whether id is in the tree.
func (t *Tree) Contains(id NodeID) bool {
	_, ok := t.depth[id]
	return ok
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return len(t.depth) }

// AddChild attaches a new node under parent. It fails if parent is absent or
// the node already exists.
func (t *Tree) AddChild(id, parent NodeID) error {
	if t.Contains(id) {
		return fmt.Errorf("tree: node %d already present", id)
	}
	if !t.Contains(parent) {
		return fmt.Errorf("tree: parent %d not present", parent)
	}
	ch := t.children[parent]
	i, _ := slices.BinarySearch(ch, id)
	next := make([]NodeID, len(ch)+1)
	copy(next, ch[:i])
	next[i] = id
	copy(next[i+1:], ch[i:])
	t.children[parent] = next
	t.children[id] = nil
	t.parent[id] = parent
	d := t.depth[parent] + 1
	t.depth[id] = d
	if d == len(t.levels) {
		t.levels = append(t.levels, 0)
	}
	t.levels[d]++
	return nil
}

// RemoveLeaf detaches a childless non-root node. It fails otherwise.
func (t *Tree) RemoveLeaf(id NodeID) error {
	if !t.Contains(id) {
		return fmt.Errorf("tree: node %d not present", id)
	}
	if id == t.root {
		return fmt.Errorf("tree: cannot remove root %d as leaf", id)
	}
	if len(t.children[id]) != 0 {
		return fmt.Errorf("tree: node %d has children", id)
	}
	t.detach(id)
	t.forget(id)
	t.trimLevels()
	return nil
}

// RemoveSubtree detaches the whole subtree rooted at id (including id) and
// returns the removed nodes in preorder. The root cannot be removed;
// callers re-rooting should build a fresh Tree instead.
func (t *Tree) RemoveSubtree(id NodeID) ([]NodeID, error) {
	if !t.Contains(id) {
		return nil, fmt.Errorf("tree: node %d not present", id)
	}
	if id == t.root {
		return nil, fmt.Errorf("tree: refusing to remove subtree at root; rebuild instead")
	}
	nodes := t.Subtree(id)
	t.detach(id)
	for _, n := range nodes {
		t.forget(n)
	}
	t.trimLevels()
	return nodes, nil
}

// detach drops id from its parent's child list, storing a fresh slice.
func (t *Tree) detach(id NodeID) {
	p := t.parent[id]
	ch := t.children[p]
	i, _ := slices.BinarySearch(ch, id)
	var next []NodeID
	if len(ch) > 1 {
		next = make([]NodeID, len(ch)-1)
		copy(next, ch[:i])
		copy(next[i:], ch[i+1:])
	}
	t.children[p] = next
}

// forget deletes id's own entries and its level count.
func (t *Tree) forget(id NodeID) {
	t.levels[t.depth[id]]--
	delete(t.parent, id)
	delete(t.children, id)
	delete(t.depth, id)
}

// trimLevels drops emptied top levels so the height stays exact.
func (t *Tree) trimLevels() {
	for len(t.levels) > 1 && t.levels[len(t.levels)-1] == 0 {
		t.levels = t.levels[:len(t.levels)-1]
	}
}

// Parent returns the parent of id, with ok=false for the root or absent
// nodes.
func (t *Tree) Parent(id NodeID) (NodeID, bool) {
	p, ok := t.parent[id]
	return p, ok
}

// Children returns the children of id in ascending order, or nil for a
// leaf or an absent node. The slice is shared with the tree: callers must
// not modify it. It stays valid after later mutations, which store fresh
// slices instead of writing into it, and appending to it is safe because
// len == cap.
func (t *Tree) Children(id NodeID) []NodeID { return t.children[id] }

// IsLeaf reports whether id is present and has no children.
func (t *Tree) IsLeaf(id NodeID) bool {
	ch, ok := t.children[id]
	return ok && len(ch) == 0
}

// Nodes returns all nodes in ascending order.
func (t *Tree) Nodes() []NodeID {
	out := make([]NodeID, 0, len(t.depth))
	for id := range t.depth {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Leaves returns all childless nodes in ascending order.
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	for id, ch := range t.children {
		if len(ch) == 0 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Depth returns the number of edges from the root to id, or -1 if absent.
// The root has depth 0 (the paper's "null" depth).
func (t *Tree) Depth(id NodeID) int {
	d, ok := t.depth[id]
	if !ok {
		return -1
	}
	return d
}

// DepthMap returns the depth of every node. It is the tree's own map, a
// live view rather than a snapshot: later mutations show through it.
// Callers must not modify it, and must not hold it across a mutation if
// they need the depths as they were.
func (t *Tree) DepthMap() map[NodeID]int { return t.depth }

// Height returns the maximum depth over all nodes (0 for a single node).
// This is the paper's h when applied to CNet(G) or BT(G).
func (t *Tree) Height() int { return len(t.levels) - 1 }

// SubtreeHeight returns the height of the subtree rooted at id (0 if id is
// a leaf), or -1 if id is absent.
func (t *Tree) SubtreeHeight(id NodeID) int {
	if !t.Contains(id) {
		return -1
	}
	h := 0
	for _, n := range t.Subtree(id) {
		h = max(h, t.depth[n])
	}
	return h - t.depth[id]
}

// Subtree returns the nodes of the subtree rooted at id in deterministic
// preorder (children visited in ascending order), or nil if absent.
func (t *Tree) Subtree(id NodeID) []NodeID {
	if !t.Contains(id) {
		return nil
	}
	out := make([]NodeID, 0, t.Size())
	var walk func(NodeID)
	walk = func(u NodeID) {
		out = append(out, u)
		for _, c := range t.Children(u) {
			walk(c)
		}
	}
	walk(id)
	return out
}

// PathToRoot returns the node sequence id, parent(id), ..., root, or nil if
// id is absent.
func (t *Tree) PathToRoot(id NodeID) []NodeID {
	if !t.Contains(id) {
		return nil
	}
	var out []NodeID
	for {
		out = append(out, id)
		if id == t.root {
			return out
		}
		id = t.parent[id]
	}
}

// EulerTour returns the Eulerian tour of the tree starting and ending at
// start: the sequence of token holders where every tree edge is traversed
// exactly twice (once in each direction). For a tree with m edges reachable
// from start the tour has 2m+1 entries. This is the transmission schedule of
// the depth-first-order broadcast of [19] and of node-move-out.
func (t *Tree) EulerTour(start NodeID) []NodeID {
	if !t.Contains(start) {
		return nil
	}
	tour := make([]NodeID, 0, 2*t.Size()-1)
	var walk func(u NodeID, from NodeID, hasFrom bool)
	walk = func(u NodeID, from NodeID, hasFrom bool) {
		tour = append(tour, u)
		// Visit all tree-neighbors except the one we came from. Tree
		// neighbors are children plus parent so that tours may start at any
		// node, as node-move-out requires.
		for _, c := range t.Children(u) {
			if hasFrom && c == from {
				continue
			}
			walk(c, u, true)
			tour = append(tour, u)
		}
		if p, ok := t.Parent(u); ok && (!hasFrom || p != from) {
			walk(p, u, true)
			tour = append(tour, u)
		}
	}
	walk(start, 0, false)
	return tour
}

// Clone returns an independent copy. Child slices are shared, which is
// safe because neither tree ever writes into one.
func (t *Tree) Clone() *Tree {
	return &Tree{
		root:     t.root,
		parent:   maps.Clone(t.parent),
		children: maps.Clone(t.children),
		depth:    maps.Clone(t.depth),
		levels:   slices.Clone(t.levels),
	}
}

// AsGraph returns the tree's node/edge set as an undirected Graph.
func (t *Tree) AsGraph() *Graph {
	g := New()
	g.AddNode(t.root)
	for id, p := range t.parent {
		_ = g.AddEdge(id, p)
	}
	return g
}

// Validate checks structural consistency: parent/children agreement,
// strictly ascending child lists, a single root, acyclicity (every node
// reaches the root), and that the maintained depths and per-depth counts
// match the parent links.
func (t *Tree) Validate() error {
	if !t.Contains(t.root) {
		return fmt.Errorf("tree: root %d missing", t.root)
	}
	if _, ok := t.parent[t.root]; ok {
		return fmt.Errorf("tree: root %d has a parent", t.root)
	}
	if len(t.children) != len(t.depth) || len(t.parent) != len(t.depth)-1 {
		return fmt.Errorf("tree: %d child lists, %d parents for %d nodes", len(t.children), len(t.parent), len(t.depth))
	}
	for id := range t.depth {
		if id == t.root {
			continue
		}
		p, ok := t.parent[id]
		if !ok {
			return fmt.Errorf("tree: non-root %d has no parent", id)
		}
		if _, ok := slices.BinarySearch(t.children[p], id); !ok {
			return fmt.Errorf("tree: %d not registered as child of %d", id, p)
		}
	}
	for p, ch := range t.children {
		for i, c := range ch {
			if i > 0 && ch[i-1] >= c {
				return fmt.Errorf("tree: children of %d not strictly ascending: %v", p, ch)
			}
			if got, ok := t.parent[c]; !ok || got != p {
				return fmt.Errorf("tree: child %d of %d has parent %v", c, p, got)
			}
		}
	}
	// Reachability: every node's path to root must terminate, and its
	// length is the node's depth.
	levels := make([]int, len(t.levels))
	for id, want := range t.depth {
		seen := make(map[NodeID]struct{})
		cur := id
		d := 0
		for cur != t.root {
			if _, dup := seen[cur]; dup {
				return fmt.Errorf("tree: cycle through %d", cur)
			}
			seen[cur] = struct{}{}
			p, ok := t.parent[cur]
			if !ok {
				return fmt.Errorf("tree: %d does not reach root", id)
			}
			cur = p
			d++
		}
		if d != want {
			return fmt.Errorf("tree: %d has depth %d, recorded %d", id, d, want)
		}
		if d >= len(levels) {
			return fmt.Errorf("tree: %d at depth %d above recorded height %d", id, d, t.Height())
		}
		levels[d]++
	}
	if !slices.Equal(levels, t.levels) {
		return fmt.Errorf("tree: per-depth counts %v, recorded %v", levels, t.levels)
	}
	if levels[len(levels)-1] == 0 {
		return fmt.Errorf("tree: recorded height %d but depth %d is empty", t.Height(), t.Height())
	}
	return nil
}
