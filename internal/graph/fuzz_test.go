package graph

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzTreeOps drives a Tree through arbitrary add-leaf / remove-leaf /
// remove-subtree sequences decoded from fuzz bytes. Each op is applied to
// a Clone first and then to the tree itself, and after every mutation the
// fuzzer checks:
//   - Validate passes and the Euler tour has 2(n-1)+1 steps;
//   - Depth, DepthMap and Height match a BFS recomputation from the root;
//   - Children slices handed out before the op kept their contents;
//   - mutating the clone left the original untouched, and the two agree
//     once both have applied the op.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xF0, 3, 0xE0})
	f.Add([]byte{5, 5, 5, 5, 0xF1, 0xF2})
	f.Add([]byte{0, 1, 2, 3, 4, 0xE1, 0xE2, 0xE3, 0xE4, 0xE5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		tr := NewTree(0)
		next := NodeID(1)
		for _, op := range ops {
			held := make(map[NodeID][]NodeID, tr.Size())
			want := make(map[NodeID][]NodeID, tr.Size())
			for _, id := range tr.Nodes() {
				held[id] = tr.Children(id)
				want[id] = slices.Clone(held[id])
			}
			before := describeTree(tr)
			c := tr.Clone()
			if !applyTreeOp(t, c, op, next) {
				continue
			}
			if got := describeTree(tr); got != before {
				t.Fatalf("op %#x on a clone changed the original:\nbefore %s\nafter  %s", op, before, got)
			}
			applyTreeOp(t, tr, op, next)
			if op < 0xE0 {
				next++
			}
			if a, b := describeTree(tr), describeTree(c); a != b {
				t.Fatalf("op %#x: tree and clone disagree:\ntree  %s\nclone %s", op, a, b)
			}
			for id, ch := range held {
				if !slices.Equal(ch, want[id]) {
					t.Fatalf("op %#x rewrote the Children(%d) slice handed out before it: %v, was %v", op, id, ch, want[id])
				}
			}
			for _, x := range []*Tree{tr, c} {
				if err := x.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				if tour := x.EulerTour(x.Root()); len(tour) != 2*(x.Size()-1)+1 {
					t.Fatalf("tour length %d for size %d", len(tour), x.Size())
				}
				checkDepthsBFS(t, x)
			}
		}
	})
}

// applyTreeOp decodes one fuzz byte into a mutation of tr and reports
// whether it mutated anything: below 0xE0 adds node next under an existing
// node, below 0xF0 removes a leaf, and the rest remove a subtree.
func applyTreeOp(t *testing.T, tr *Tree, op byte, next NodeID) bool {
	t.Helper()
	switch {
	case op < 0xE0:
		nodes := tr.Nodes()
		if err := tr.AddChild(next, nodes[int(op)%len(nodes)]); err != nil {
			t.Fatalf("AddChild: %v", err)
		}
	case op < 0xF0:
		leaves := tr.Leaves()
		victim := leaves[int(op)%len(leaves)]
		if victim == tr.Root() {
			return false
		}
		if err := tr.RemoveLeaf(victim); err != nil {
			t.Fatalf("RemoveLeaf: %v", err)
		}
		if tr.Depth(victim) != -1 {
			t.Fatalf("removed leaf %d still has depth %d", victim, tr.Depth(victim))
		}
	default:
		nodes := tr.Nodes()
		victim := nodes[int(op)%len(nodes)]
		if victim == tr.Root() {
			return false
		}
		if _, err := tr.RemoveSubtree(victim); err != nil {
			t.Fatalf("RemoveSubtree: %v", err)
		}
	}
	return true
}

// checkDepthsBFS recomputes every depth by BFS from the root over Children
// and compares it with the tree's maintained Depth, DepthMap and Height.
func checkDepthsBFS(t *testing.T, tr *Tree) {
	t.Helper()
	depth := map[NodeID]int{tr.Root(): 0}
	height := 0
	for queue := []NodeID{tr.Root()}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, c := range tr.Children(u) {
			depth[c] = depth[u] + 1
			height = max(height, depth[c])
			queue = append(queue, c)
		}
	}
	dm := tr.DepthMap()
	if len(dm) != len(depth) || tr.Size() != len(depth) {
		t.Fatalf("DepthMap has %d entries, Size %d, BFS reaches %d nodes", len(dm), tr.Size(), len(depth))
	}
	for id, d := range depth {
		if dm[id] != d || tr.Depth(id) != d {
			t.Fatalf("node %d: DepthMap %d, Depth %d, BFS %d", id, dm[id], tr.Depth(id), d)
		}
	}
	if tr.Height() != height {
		t.Fatalf("Height %d, BFS height %d", tr.Height(), height)
	}
}

// describeTree renders every node with its parent, depth and children, so
// two trees compare equal exactly when their observable state does.
func describeTree(tr *Tree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "h=%d", tr.Height())
	for _, id := range tr.Nodes() {
		p, _ := tr.Parent(id)
		fmt.Fprintf(&b, " %d(p%d d%d %v)", id, p, tr.Depth(id), tr.Children(id))
	}
	return b.String()
}
