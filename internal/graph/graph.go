// Package graph provides the undirected-graph and rooted-tree machinery the
// cluster-based network structure is built on: adjacency bookkeeping,
// traversals, connectivity, tree utilities (including Euler tours, used by
// the depth-first-order broadcast baseline and by node-move-out), and the
// dominating-set / independent-set helpers used to verify Property 1 of the
// paper.
//
// All iteration orders are deterministic (ascending node ID) so that
// simulations are reproducible run to run.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node. IDs are application-chosen and need not be dense.
type NodeID int

// Graph is a simple undirected graph without self-loops or parallel edges.
// The zero value is not usable; call New.
//
// Each node's adjacency is one ascending slice, kept sorted on every
// mutation, so the traversal and protocol hot loops read it with no sort
// or allocation; see Neighbors for the sharing contract. Only the node
// listing is built lazily (see Nodes).
type Graph struct {
	// adj holds every node's neighbors in ascending order. Mutations
	// insert and delete in place with room to grow, so building a graph
	// edge by edge costs amortised O(degree) per edge.
	adj   map[NodeID][]NodeID
	edges int

	// nodeCache holds the sorted node listing, dropped on any node-set
	// mutation.
	nodeCache []NodeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[NodeID][]NodeID)}
}

// AddNode inserts an isolated node. Adding an existing node is a no-op.
func (g *Graph) AddNode(id NodeID) {
	if _, ok := g.adj[id]; !ok {
		g.adj[id] = nil
		g.nodeCache = nil
	}
}

// HasNode reports whether id is present.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.adj[id]
	return ok
}

// RemoveNode deletes a node and all incident edges. Removing an absent node
// is a no-op.
func (g *Graph) RemoveNode(id NodeID) {
	nbrs, ok := g.adj[id]
	if !ok {
		return
	}
	for _, n := range nbrs {
		g.adj[n], _ = deleteSorted(g.adj[n], id)
	}
	g.edges -= len(nbrs)
	delete(g.adj, id)
	g.nodeCache = nil
}

// AddEdge inserts the undirected edge {u, v}, adding endpoints as needed.
// Self-loops are rejected with an error; duplicate edges are no-ops.
func (g *Graph) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	g.AddNode(u)
	g.AddNode(v)
	nu, added := insertSorted(g.adj[u], v)
	if !added {
		return nil
	}
	g.adj[u] = nu
	g.adj[v], _ = insertSorted(g.adj[v], u)
	g.edges++
	return nil
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v NodeID) {
	nu, removed := deleteSorted(g.adj[u], v)
	if !removed {
		return
	}
	g.adj[u] = nu
	g.adj[v], _ = deleteSorted(g.adj[v], u)
	g.edges--
}

// insertSorted inserts v into the ascending slice s unless present.
func insertSorted(s []NodeID, v NodeID) ([]NodeID, bool) {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s, false
	}
	return slices.Insert(s, i, v), true
}

// deleteSorted removes v from the ascending slice s if present.
func deleteSorted(s []NodeID, v NodeID) ([]NodeID, bool) {
	i, found := slices.BinarySearch(s, v)
	if !found {
		return s, false
	}
	return slices.Delete(s, i, i+1), true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := slices.BinarySearch(g.adj[u], v)
	return ok
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns all node IDs in ascending order. The result is cached and
// shared until the node set mutates: callers must not modify it. Appending
// to it is safe (the cache is exactly sized, so append reallocates).
//
//dynlint:hotpath cached adjacency feeds the kernel every round
func (g *Graph) Nodes() []NodeID {
	if g.nodeCache != nil {
		return g.nodeCache
	}
	out := make([]NodeID, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	g.nodeCache = out
	return out
}

// Neighbors returns the neighbors of id in ascending order. Absent and
// isolated nodes yield an empty slice. The result shares the graph's
// storage until id's adjacency next mutates, after which its contents are
// unspecified: callers must not modify it, and must copy it to keep it
// across a mutation of id (see cnet.MoveOutRecord.Neighbors). Appending is
// safe — the result is exactly sized (len == cap), so append reallocates.
// Neighbors never allocates.
//
//dynlint:hotpath sorted adjacency feeds the kernel every round
func (g *Graph) Neighbors(id NodeID) []NodeID {
	s := g.adj[id]
	return s[:len(s):len(s)]
}

// WarmAdjacency materializes the sorted node listing, the one structure
// Nodes builds lazily (a write on first call). Concurrent readers of an
// otherwise-immutable graph must warm it first; after WarmAdjacency
// returns (and until the next mutation), Nodes, Neighbors, HasEdge,
// Degree and NumEdges are safe to call from multiple goroutines. The
// radio engine's parallel kernel relies on this.
func (g *Graph) WarmAdjacency() {
	g.Nodes()
}

// Degree returns the degree of id (0 for absent nodes).
func (g *Graph) Degree(id NodeID) int { return len(g.adj[id]) }

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
// This is the quantity the paper calls D when applied to the whole network.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > max {
			max = len(nbrs)
		}
	}
	return max
}

// Clone returns a deep copy of the graph. All adjacency slices of the copy
// share one backing array, each capped at its own length, so the first
// insertion into a node's adjacency moves it out instead of overwriting
// its neighbor's.
func (g *Graph) Clone() *Graph {
	nodes := g.Nodes()
	c := &Graph{adj: make(map[NodeID][]NodeID, len(nodes)), edges: g.edges, nodeCache: nodes}
	backing := make([]NodeID, 0, 2*g.edges)
	for _, id := range nodes {
		start := len(backing)
		backing = append(backing, g.adj[id]...)
		c.adj[id] = backing[start:len(backing):len(backing)]
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep: its node set is the
// intersection of keep with the graph's nodes, and its edges are all edges
// of g with both endpoints in keep. The paper writes G(V_BT) for the
// subgraph induced by the backbone node set.
func (g *Graph) InducedSubgraph(keep []NodeID) *Graph {
	in := make(map[NodeID]struct{}, len(keep))
	for _, id := range keep {
		if g.HasNode(id) {
			in[id] = struct{}{}
		}
	}
	sub := &Graph{adj: make(map[NodeID][]NodeID, len(in))}
	for _, id := range keep {
		if _, ok := in[id]; !ok {
			continue
		}
		if _, done := sub.adj[id]; done {
			continue
		}
		var nbrs []NodeID
		for _, n := range g.adj[id] {
			if _, ok := in[n]; ok {
				nbrs = append(nbrs, n)
			}
		}
		sub.adj[id] = nbrs
		sub.edges += len(nbrs)
	}
	sub.edges /= 2
	return sub
}

// BFSResult carries the outcome of a breadth-first traversal.
type BFSResult struct {
	// Order lists reached nodes in visit order, starting with the root.
	Order []NodeID
	// Parent maps each reached node (except the root) to its BFS parent.
	Parent map[NodeID]NodeID
	// Depth maps each reached node to its hop distance from the root.
	Depth map[NodeID]int
}

// BFS runs a breadth-first traversal from root. Neighbor expansion is in
// ascending ID order, so the result is deterministic. If root is absent the
// result is empty. Order doubles as the work queue and all buffers are
// preallocated to the reachable-set bound, so a traversal performs a
// constant number of allocations.
func (g *Graph) BFS(root NodeID) BFSResult {
	if !g.HasNode(root) {
		return BFSResult{Parent: make(map[NodeID]NodeID), Depth: make(map[NodeID]int)}
	}
	n := len(g.adj)
	res := BFSResult{
		Order:  make([]NodeID, 0, n),
		Parent: make(map[NodeID]NodeID, n),
		Depth:  make(map[NodeID]int, n),
	}
	res.Depth[root] = 0
	res.Order = append(res.Order, root)
	for head := 0; head < len(res.Order); head++ {
		u := res.Order[head]
		du := res.Depth[u]
		for _, v := range g.Neighbors(u) {
			if _, seen := res.Depth[v]; seen {
				continue
			}
			res.Depth[v] = du + 1
			res.Parent[v] = u
			res.Order = append(res.Order, v)
		}
	}
	return res
}

// Connected reports whether the graph is connected. Empty graphs and
// single-node graphs are connected.
func (g *Graph) Connected() bool {
	if len(g.adj) <= 1 {
		return true
	}
	var root NodeID
	for id := range g.adj {
		root = id
		break
	}
	return len(g.BFS(root).Order) == len(g.adj)
}

// IsCutVertex reports whether removing v would split its connected
// component, i.e. whether v is an articulation point. Only v's component
// is searched, and the search stops as soon as it has reached every
// neighbor of v around it, so when the neighbors are joined by short
// detours — the usual case, a non-cut node of a geometric graph — it
// touches only v's surroundings. On a connected graph, removing v keeps
// it connected exactly when v is not a cut vertex.
func (g *Graph) IsCutVertex(v NodeID) bool {
	nbrs := g.adj[v]
	if len(nbrs) < 2 {
		return false
	}
	missing := len(nbrs) - 1
	seen := map[NodeID]struct{}{nbrs[0]: {}}
	queue := []NodeID{nbrs[0]}
	for head := 0; head < len(queue); head++ {
		for _, u := range g.adj[queue[head]] {
			if _, ok := seen[u]; ok || u == v {
				continue
			}
			seen[u] = struct{}{}
			queue = append(queue, u)
			if _, isNbr := slices.BinarySearch(nbrs, u); isNbr {
				if missing--; missing == 0 {
					return false
				}
			}
		}
	}
	return true
}

// Components returns the connected components, each sorted ascending, and
// the list of components sorted by their smallest member.
func (g *Graph) Components() [][]NodeID {
	seen := make(map[NodeID]struct{}, len(g.adj))
	var comps [][]NodeID
	for _, id := range g.Nodes() {
		if _, ok := seen[id]; ok {
			continue
		}
		res := g.BFS(id)
		comp := append([]NodeID(nil), res.Order...)
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		for _, n := range comp {
			seen[n] = struct{}{}
		}
		comps = append(comps, comp)
	}
	return comps
}

// ArticulationPoints returns the cut vertices of the graph: the nodes
// whose removal increases the number of connected components. For a
// connected graph this is exactly the set of nodes that are NOT safe to
// remove while keeping the remainder connected, which makes one O(n+m)
// pass replace a per-candidate connectivity probe in the churn generators.
// The traversal expands neighbors in ascending order, so the computation
// is deterministic; the result is a set (iterate g.Nodes() for order).
func (g *Graph) ArticulationPoints() map[NodeID]bool {
	n := len(g.adj)
	disc := make(map[NodeID]int, n)
	low := make(map[NodeID]int, n)
	parent := make(map[NodeID]NodeID, n)
	art := make(map[NodeID]bool)
	timer := 0
	type frame struct {
		u    NodeID
		next int
	}
	stack := make([]frame, 0, n)
	for _, root := range g.Nodes() {
		if _, seen := disc[root]; seen {
			continue
		}
		disc[root] = timer
		low[root] = timer
		timer++
		rootChildren := 0
		stack = append(stack[:0], frame{u: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			nbrs := g.Neighbors(f.u)
			if f.next < len(nbrs) {
				v := nbrs[f.next]
				f.next++
				if _, seen := disc[v]; !seen {
					parent[v] = f.u
					if f.u == root {
						rootChildren++
					}
					disc[v] = timer
					low[v] = timer
					timer++
					stack = append(stack, frame{u: v})
				} else if p, ok := parent[f.u]; (!ok || v != p) && disc[v] < low[f.u] {
					low[f.u] = disc[v]
				}
			} else {
				stack = stack[:len(stack)-1]
				if p, ok := parent[f.u]; ok {
					if low[f.u] < low[p] {
						low[p] = low[f.u]
					}
					if p != root && low[f.u] >= disc[p] {
						art[p] = true
					}
				}
			}
		}
		if rootChildren > 1 {
			art[root] = true
		}
	}
	return art
}

// Eccentricity returns the maximum BFS distance from id to any reachable
// node, and the number of reachable nodes (including id).
func (g *Graph) Eccentricity(id NodeID) (ecc, reached int) {
	res := g.BFS(id)
	for _, d := range res.Depth {
		if d > ecc {
			ecc = d
		}
	}
	return ecc, len(res.Order)
}

// Diameter returns the exact diameter of a connected graph via all-pairs
// BFS, or -1 if the graph is disconnected or empty.
func (g *Graph) Diameter() int {
	if len(g.adj) == 0 {
		return -1
	}
	n := len(g.adj)
	diam := 0
	for _, id := range g.Nodes() {
		ecc, reached := g.Eccentricity(id)
		if reached != n {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// Equal reports whether two graphs have identical node and edge sets.
func (g *Graph) Equal(o *Graph) bool {
	if g.NumNodes() != o.NumNodes() || g.NumEdges() != o.NumEdges() {
		return false
	}
	for id, nbrs := range g.adj {
		onbrs, ok := o.adj[id]
		if !ok || !slices.Equal(nbrs, onbrs) {
			return false
		}
	}
	return true
}
