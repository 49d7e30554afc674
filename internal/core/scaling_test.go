package core_test

import (
	"math"
	"runtime"
	"testing"

	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/workload"
)

// TestChurnMaintenanceIsLocal guards join/leave maintenance against
// growing with the network, without reading a clock, so a noisy host
// cannot flake it. It replays seeded churn traces (200 events, leave
// fraction 0.4, paper density) through core.Network.Join and Leave on
// networks of 250 and 2000 nodes and compares the bytes allocated per
// moved node: a join moves one node, a leave the |T| nodes of the
// departed node's subtree (Theorem 3 charges a move-in per re-inserted
// node; a sink departure moves them all). Local maintenance allocates
// about 2.1x as much per moved node at 8x the nodes: deeper trees give
// longer detours around a departing node. Re-checking every node's slot
// conditions after every update, and probing connectivity on a clone of
// the graph, allocated 8.8x.
func TestChurnMaintenanceIsLocal(t *testing.T) {
	const maxRatio = 4
	small, large := churnAllocPerMove(t, 250), churnAllocPerMove(t, 2000)
	if r := large / small; r > maxRatio {
		t.Fatalf("Join/Leave allocated %.0f B per moved node at n=250 and %.0f B at n=2000: ratio %.1f > %d, maintenance is no longer local",
			small, large, r, maxRatio)
	}
}

// churnAllocPerMove returns the bytes core.Network.Join and Leave allocate
// per moved node over a seeded churn trace on a network of n nodes.
func churnAllocPerMove(t *testing.T, n int) float64 {
	t.Helper()
	side := int(math.Round(math.Sqrt(float64(n) / 5)))
	cfg := workload.PaperConfig(1, side, n)
	base, trace, err := workload.ChurnTrace(cfg, 200, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// Resolve every join's neighbor set up front, so only the network's
	// own work is measured.
	udg := workload.NewUDGState(cfg.Region, cfg.Range)
	for i, p := range base.Pos {
		if _, err := udg.Join(graph.NodeID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	nbrs := make([][]graph.NodeID, len(trace))
	for i, ev := range trace {
		delta, err := udg.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		nbrs[i] = append([]graph.NodeID(nil), delta...)
	}
	net, err := core.Build(base.Graph(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var bytes, moved uint64
	for i, ev := range trace {
		moves := 1
		if ev.Kind == workload.Leave {
			moves = len(net.CNet().Tree().Subtree(ev.Node))
		}
		runtime.ReadMemStats(&before)
		if ev.Kind == workload.Join {
			err = net.Join(ev.Node, nbrs[i])
		} else {
			err = net.Leave(ev.Node)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("event %d (%v %d): %v", i, ev.Kind, ev.Node, err)
		}
		bytes += after.TotalAlloc - before.TotalAlloc
		moved += uint64(moves)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
	return float64(bytes) / float64(moved)
}
