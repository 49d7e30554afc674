package cnet_test

import (
	"testing"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
	"dynsens/internal/timeslot"
)

// FuzzChurn drives a CNet (with live slot assignment) through an arbitrary
// op sequence decoded from fuzz bytes: each byte either joins a new node
// next to an existing anchor or removes a safe node. Every invariant is
// re-checked after every operation, and the tree's maintained Depth,
// DepthMap and Height are compared with a BFS recomputation from the root
// after every MoveIn and MoveOut.
func FuzzChurn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x80, 4, 0x81, 5})
	f.Add([]byte{10, 20, 30, 0x90, 0x91, 40, 50, 0x92, 0x93, 0x94})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := cnet.New(0, nil)
		a := timeslot.New(c, timeslot.ConditionStrict)
		next := graph.NodeID(1)
		for _, op := range ops {
			if len(ops) > 64 {
				ops = ops[:64]
			}
			if op < 0x80 || c.Size() <= 2 {
				// Join: anchor selected by op among current nodes, plus
				// every neighbor of the anchor to keep degrees growing.
				nodes := c.Tree().Nodes()
				anchor := nodes[int(op)%len(nodes)]
				nbrs := []graph.NodeID{anchor}
				for i, nb := range c.Graph().Neighbors(anchor) {
					if i%2 == int(op)%2 {
						nbrs = append(nbrs, nb)
					}
				}
				if _, _, err := c.MoveIn(next, nbrs); err != nil {
					t.Fatalf("join %d: %v", next, err)
				}
				checkDepthsBFS(t, c.Tree())
				if err := a.OnJoin(next); err != nil {
					t.Fatalf("slots after join %d: %v", next, err)
				}
				next++
			} else {
				// Leave: pick a safe victim deterministically from op.
				nodes := c.Tree().Nodes()
				removed := false
				for k := 0; k < len(nodes); k++ {
					cand := nodes[(int(op)+k)%len(nodes)]
					if cand == c.Root() {
						continue
					}
					res := c.Graph().Clone()
					res.RemoveNode(cand)
					if !res.Connected() {
						continue
					}
					rec, _, err := c.MoveOut(cand)
					if err != nil {
						t.Fatalf("leave %d: %v", cand, err)
					}
					checkDepthsBFS(t, c.Tree())
					if err := a.OnMoveOut(rec); err != nil {
						t.Fatalf("slots after leave %d: %v", cand, err)
					}
					removed = true
					break
				}
				if !removed {
					continue
				}
			}
			if err := c.Verify(); err != nil {
				t.Fatalf("structure: %v", err)
			}
			if err := a.Verify(); err != nil {
				t.Fatalf("slots: %v", err)
			}
			if err := a.CheckBounds(); err != nil {
				t.Fatalf("bounds: %v", err)
			}
		}
	})
}

// checkDepthsBFS recomputes every depth by BFS from the root over Children
// and compares it with the tree's maintained Depth, DepthMap and Height.
func checkDepthsBFS(t *testing.T, tr *graph.Tree) {
	t.Helper()
	depth := map[graph.NodeID]int{tr.Root(): 0}
	height := 0
	for queue := []graph.NodeID{tr.Root()}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, ch := range tr.Children(u) {
			depth[ch] = depth[u] + 1
			height = max(height, depth[ch])
			queue = append(queue, ch)
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
