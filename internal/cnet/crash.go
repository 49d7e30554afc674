package cnet

import (
	"fmt"
	"slices"
	"sort"

	"dynsens/internal/graph"
)

// CrashRecord describes a non-graceful repair after node crashes.
type CrashRecord struct {
	// Dead lists the crashed nodes that were removed, ascending.
	Dead []graph.NodeID
	// Reinserted lists surviving orphans re-attached via node-move-in, in
	// re-insertion order.
	Reinserted []graph.NodeID
	// Dropped lists survivors that could no longer reach the sink and
	// were removed from the network (they would re-join on their own once
	// connectivity returns).
	Dropped []graph.NodeID
	// RootReplaced is set when the sink itself crashed; NewRoot is its
	// elected replacement.
	RootReplaced bool
	NewRoot      graph.NodeID
}

// RemoveCrashed repairs the structure after the given nodes crashed
// without running node-move-out: the subtrees under the topmost crashed
// nodes are detached, surviving orphans re-join through node-move-in when
// they can still hear the network, and unreachable survivors are dropped.
// If the sink crashed, a replacement is elected among its surviving
// neighbors (falling back to the lowest surviving ID) and the structure is
// rebuilt from it. The paper only covers graceful departure; this is the
// crash-failure counterpart its robustness discussion implies.
func (c *CNet) RemoveCrashed(dead []graph.NodeID) (CrashRecord, OpCost, error) {
	if len(dead) == 0 {
		return CrashRecord{}, OpCost{}, fmt.Errorf("cnet: empty crash set")
	}
	deadSet := make(map[graph.NodeID]bool, len(dead))
	for _, id := range dead {
		if !c.Contains(id) {
			return CrashRecord{}, OpCost{}, fmt.Errorf("cnet: crashed node %d not present", id)
		}
		deadSet[id] = true
	}
	if len(deadSet) >= c.Size() {
		return CrashRecord{}, OpCost{}, fmt.Errorf("cnet: all nodes crashed")
	}

	rec := CrashRecord{Dead: sortedSet(deadSet)}
	var cost OpCost

	if deadSet[c.tree.Root()] {
		rec, cost, err := c.crashRebuild(deadSet, rec)
		if err == nil {
			c.countCrash(rec)
		}
		return rec, cost, err
	}

	// Detach the subtree of every topmost crashed node.
	pending := make(map[graph.NodeID]struct{})
	for id := range deadSet {
		if !c.tree.Contains(id) {
			continue // already detached under another crashed ancestor
		}
		isTopmost := true
		for cur := id; ; {
			p, ok := c.tree.Parent(cur)
			if !ok {
				break
			}
			if deadSet[p] {
				isTopmost = false
				break
			}
			cur = p
		}
		if !isTopmost {
			continue
		}
		sub, err := c.tree.RemoveSubtree(id)
		if err != nil {
			return CrashRecord{}, OpCost{}, err
		}
		for _, x := range sub {
			delete(c.status, x)
			if !deadSet[x] {
				pending[x] = struct{}{}
			}
		}
	}
	for id := range deadSet {
		delete(c.status, id)
		c.g.RemoveNode(id)
	}
	cost.Discovery = 2 * (len(pending) + len(deadSet)) // detection + tour bookkeeping

	// Re-insert reachable orphans, lowest eligible ID first; drop the rest.
	orphans := sortedKeys(pending)
	for len(orphans) > 0 {
		i := slices.IndexFunc(orphans, c.hearsNetwork)
		if i < 0 {
			// Remaining orphans cannot reach the sink: drop them.
			for _, x := range orphans {
				rec.Dropped = append(rec.Dropped, x)
				c.g.RemoveNode(x)
			}
			break
		}
		x := orphans[i]
		orphans = slices.Delete(orphans, i, i+1)
		if _, mcost, err := c.MoveIn(x, c.currentNeighbors(x)); err != nil {
			return CrashRecord{}, OpCost{}, fmt.Errorf("cnet: re-attaching orphan %d: %w", x, err)
		} else {
			cost.Add(mcost)
		}
		rec.Reinserted = append(rec.Reinserted, x)
	}
	c.countCrash(rec)
	return rec, cost, nil
}

// crashRebuild handles a crashed sink: elect a replacement and rebuild
// over the surviving reachable component.
func (c *CNet) crashRebuild(deadSet map[graph.NodeID]bool, rec CrashRecord) (CrashRecord, OpCost, error) {
	oldRoot := c.tree.Root()
	// Prefer a surviving neighbor of the dead sink.
	var candidates []graph.NodeID
	for _, n := range c.g.Neighbors(oldRoot) {
		if !deadSet[n] {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		for _, n := range c.g.Nodes() {
			if !deadSet[n] {
				candidates = append(candidates, n)
				break
			}
		}
	}
	newRoot := c.policy(candidates)

	// Residual graph of survivors.
	residual := c.g.Clone()
	for id := range deadSet {
		residual.RemoveNode(id)
	}
	reach := make(map[graph.NodeID]bool)
	for _, id := range residual.BFS(newRoot).Order {
		reach[id] = true
	}

	rebuilt := New(newRoot, c.policy)
	rebuilt.instr = c.instr // rebuild move-ins count like any other
	rebuilt.deltaHook = c.deltaHook
	var cost OpCost
	for _, x := range residual.BFS(newRoot).Order[1:] {
		var nbrs []graph.NodeID
		for _, n := range residual.Neighbors(x) {
			if rebuilt.Contains(n) {
				nbrs = append(nbrs, n)
			}
		}
		if _, mcost, err := rebuilt.MoveIn(x, nbrs); err != nil {
			return CrashRecord{}, OpCost{}, fmt.Errorf("cnet: rebuilding after sink crash, node %d: %w", x, err)
		} else {
			cost.Add(mcost)
		}
		rec.Reinserted = append(rec.Reinserted, x)
	}
	for _, id := range residual.Nodes() {
		if !reach[id] {
			rec.Dropped = append(rec.Dropped, id)
		}
	}
	cost.Discovery = 2 * (c.Size() + 1)

	c.g = rebuilt.g
	c.tree = rebuilt.tree
	c.status = rebuilt.status
	rec.RootReplaced = true
	rec.NewRoot = newRoot
	return rec, cost, nil
}

func sortedSet(m map[graph.NodeID]bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
