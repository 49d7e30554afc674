package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestNeighborsAppendNeverWritesGraph appends to Neighbors results of nodes
// whose adjacency slices have spare capacity (grown by insertion) and
// checks the graph is unchanged.
func TestNeighborsAppendNeverWritesGraph(t *testing.T) {
	g := New()
	for v := NodeID(1); v <= 5; v++ {
		mustEdge(t, g, 0, v)
		mustEdge(t, g, v, v+10)
	}
	g.RemoveEdge(0, 3) // leaves spare capacity behind the shrunk slice
	want := slices.Clone(g.Neighbors(0))
	for _, id := range g.Nodes() {
		nbrs := g.Neighbors(id)
		if len(nbrs) != cap(nbrs) {
			t.Fatalf("Neighbors(%d) has len %d cap %d", id, len(nbrs), cap(nbrs))
		}
		_ = append(nbrs, 99, 98, 97)
	}
	if got := g.Neighbors(0); !slices.Equal(got, want) {
		t.Fatalf("Neighbors(0) = %v after appends, want %v", got, want)
	}
	if g.HasNode(99) || g.HasEdge(0, 99) || g.NumEdges() != 9 {
		t.Fatalf("appends leaked into the graph: %d edges", g.NumEdges())
	}
}

// TestCloneIsIndependent applies random mutations to a clone, then to its
// original, and checks that each ends equal to an edge-by-edge rebuild
// mutated the same way while the other stays as it was — including
// insertions into the clone's shared backing array.
func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(40, 60, rng)
	c := g.Clone()
	mutateBoth := func(a, b *Graph) {
		for i := 0; i < 300; i++ {
			u, v := NodeID(rng.Intn(45)), NodeID(rng.Intn(45))
			switch {
			case u == v:
				a.RemoveNode(u)
				b.RemoveNode(u)
			case rng.Intn(2) == 0:
				mustEdge(t, a, u, v)
				mustEdge(t, b, u, v)
			default:
				a.RemoveEdge(u, v)
				b.RemoveEdge(u, v)
			}
		}
	}
	snapshot := adjacencyOf(g)
	ref := rebuilt(t, c)
	mutateBoth(c, ref)
	if !sameAdjacency(g, snapshot) {
		t.Fatal("mutating the clone changed the original")
	}
	if !c.Equal(ref) {
		t.Fatal("the clone diverged from an independent copy under the same mutations")
	}
	snapshot = adjacencyOf(c)
	ref = rebuilt(t, g)
	mutateBoth(g, ref)
	if !sameAdjacency(c, snapshot) {
		t.Fatal("mutating the original changed the clone")
	}
	if !g.Equal(ref) {
		t.Fatal("the original diverged from an independent copy under the same mutations")
	}
}

// rebuilt copies g node by node and edge by edge, sharing nothing.
func rebuilt(t *testing.T, g *Graph) *Graph {
	t.Helper()
	r := New()
	for _, id := range g.Nodes() {
		r.AddNode(id)
		for _, n := range g.Neighbors(id) {
			mustEdge(t, r, id, n)
		}
	}
	return r
}

// oracle is a map-of-sets undirected graph: the representation Graph used
// before adjacency became sorted slices.
type oracle map[NodeID]map[NodeID]bool

func (o oracle) addEdge(u, v NodeID) {
	for _, id := range []NodeID{u, v} {
		if o[id] == nil {
			o[id] = map[NodeID]bool{}
		}
	}
	o[u][v], o[v][u] = true, true
}

func (o oracle) removeNode(id NodeID) {
	for n := range o[id] {
		delete(o[n], id)
	}
	delete(o, id)
}

// TestAdjacencyMatchesOracle applies random edge insertions and
// deletions, node removals and induced subgraphs to a Graph and to a
// map-of-sets oracle, and checks after every operation that adjacency,
// edge count, Equal and InducedSubgraph agree with it.
func TestAdjacencyMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, o := New(), oracle{}
		for step := 0; step < 300; step++ {
			u, v := NodeID(rng.Intn(30)), NodeID(rng.Intn(30))
			switch op := rng.Intn(10); {
			case op < 6 && u != v:
				mustEdge(t, g, u, v)
				o.addEdge(u, v)
			case op < 8:
				g.RemoveEdge(u, v)
				if o[u] != nil {
					delete(o[u], v)
				}
				if o[v] != nil {
					delete(o[v], u)
				}
			case op < 9:
				g.RemoveNode(u)
				o.removeNode(u)
			default:
				var keep []NodeID
				for _, id := range g.Nodes() {
					if rng.Intn(2) == 0 {
						keep = append(keep, id, id) // duplicates are ignored
					}
				}
				keep = append(keep, 1000) // absent nodes are ignored
				sub := g.InducedSubgraph(keep)
				so := oracle{}
				for _, id := range keep {
					if _, ok := o[id]; ok {
						so[id] = map[NodeID]bool{}
					}
				}
				for id := range so {
					for n := range o[id] {
						if _, ok := so[n]; ok {
							so[id][n] = true
						}
					}
				}
				if err := matches(sub, so); err != "" {
					t.Fatalf("seed %d step %d: InducedSubgraph: %s", seed, step, err)
				}
			}
			if err := matches(g, o); err != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, err)
			}
			if c := g.Clone(); !c.Equal(g) || !g.Equal(c) {
				t.Fatalf("seed %d step %d: clone not Equal", seed, step)
			}
		}
		other := g.Clone()
		if nodes := g.Nodes(); len(nodes) >= 2 {
			u, v := nodes[0], nodes[len(nodes)-1]
			if g.HasEdge(u, v) {
				other.RemoveEdge(u, v)
			} else {
				mustEdge(t, other, u, v)
			}
			if g.Equal(other) || other.Equal(g) {
				t.Fatalf("seed %d: Equal missed a one-edge difference", seed)
			}
		}
	}
}

// matches compares g with the oracle and describes the first difference.
func matches(g *Graph, o oracle) string {
	if g.NumNodes() != len(o) {
		return "node count differs"
	}
	edges := 0
	for id, set := range o {
		want := make([]NodeID, 0, len(set))
		for n := range set {
			want = append(want, n)
		}
		slices.Sort(want)
		if got := g.Neighbors(id); !g.HasNode(id) || !slices.Equal(got, want) {
			return "adjacency differs"
		}
		for _, n := range want {
			if !g.HasEdge(id, n) || !g.HasEdge(n, id) {
				return "HasEdge misses an edge"
			}
		}
		edges += len(set)
	}
	if g.NumEdges() != edges/2 {
		return "edge count differs"
	}
	return ""
}

// TestIsCutVertexMatchesArticulationPoints checks the local cut-vertex
// probe against the global articulation-point pass, and against removing
// the node from a clone, on random connected and disconnected graphs.
func TestIsCutVertexMatchesArticulationPoints(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomConnected(n, rng.Intn(n), rng)
		if seed%3 == 0 {
			// A second component and an isolated node.
			for i := 0; i < 5; i++ {
				mustEdge(t, g, NodeID(100+i), NodeID(101+i))
			}
			g.AddNode(200)
		}
		art := g.ArticulationPoints()
		connected := g.Connected()
		for _, id := range g.Nodes() {
			if got := g.IsCutVertex(id); got != art[id] {
				t.Fatalf("seed %d: IsCutVertex(%d) = %v, ArticulationPoints says %v", seed, id, got, art[id])
			}
			if !connected {
				continue
			}
			res := g.Clone()
			res.RemoveNode(id)
			if res.Connected() == g.IsCutVertex(id) {
				t.Fatalf("seed %d: IsCutVertex(%d) = %v but residual connected = %v", seed, id, g.IsCutVertex(id), res.Connected())
			}
		}
	}
}

func adjacencyOf(g *Graph) map[NodeID][]NodeID {
	out := make(map[NodeID][]NodeID, g.NumNodes())
	for _, id := range g.Nodes() {
		out[id] = slices.Clone(g.Neighbors(id))
	}
	return out
}

func sameAdjacency(g *Graph, want map[NodeID][]NodeID) bool {
	if g.NumNodes() != len(want) {
		return false
	}
	for id, nbrs := range want {
		if !g.HasNode(id) || !slices.Equal(g.Neighbors(id), nbrs) {
			return false
		}
	}
	return true
}
