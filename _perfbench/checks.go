package main

import (
	"fmt"
	"math"
	"reflect"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/flight"
	"dynsens/internal/geom"
	"dynsens/internal/graph"
	"dynsens/internal/timeslot"
	"dynsens/internal/workload"
)

// paperConfig is the paper's deployment (50 m range) at its density of
// five nodes per 100 m x 100 m unit: a square of side 100*sqrt(n/5) m.
func paperConfig(seed int64, n int) workload.Config {
	side := 100 * math.Sqrt(float64(n)/5)
	return workload.Config{Seed: seed, Region: geom.Region{Width: side, Height: side}, Range: 50, N: n}
}

// subSeed is the seed of a run's j-th network.
func subSeed(seed int64, j int) int64 { return seed*1_000_003 + int64(j) }

// bounds holds the structural quantities the paper's round and awake
// bounds are stated in, for one fixed network.
type bounds struct {
	deltaU, delta, bigDelta int // largest u-, b- and l-slot
	h, hBT, heads           int
	root                    graph.NodeID
	depth                   map[graph.NodeID]int
}

func boundsOf(a *timeslot.Assignment) bounds {
	c := a.Net()
	return bounds{
		deltaU: a.Max(timeslot.U), delta: a.SmallDelta(), bigDelta: a.Delta(),
		h: c.Tree().Height(), hBT: c.Backbone().Height(), heads: len(c.Heads()),
		root: c.Root(), depth: c.Tree().DepthMap(),
	}
}

// check verifies a fault-free broadcast from src: every audience node got
// the payload, and the run kept to its bound — Lemma 1 for CFF, Theorem 1
// for ICFF and multicast (plus the source-to-root preamble of a non-root
// source), 4p-2 for DFO. The awake bounds are stated for broadcasts from
// the root and are checked there.
func (b bounds) check(m broadcast.Metrics, src graph.NodeID) error {
	if m.Audience == 0 || !m.Completed {
		return fmt.Errorf("%s from %d: delivery ratio %.4f (%d/%d)", m.Protocol, src, m.DeliveryRatio(), m.Received, m.Audience)
	}
	pre := b.depth[src]
	rounds, awake := 0, -1
	switch m.Protocol {
	case "CFF":
		rounds, awake = pre+b.deltaU*(b.h+1), 2*b.deltaU
	case "ICFF", "MCAST":
		rounds, awake = pre+b.delta*b.hBT+b.bigDelta, 2*b.delta+b.bigDelta
	case "DFO":
		rounds = max(4*b.heads-2, 2)
	default:
		return fmt.Errorf("no bound for protocol %q", m.Protocol)
	}
	if m.Rounds > rounds {
		return fmt.Errorf("%s from %d: %d rounds exceed the bound %d", m.Protocol, src, m.Rounds, rounds)
	}
	if src == b.root && awake >= 0 && m.MaxAwake > awake {
		return fmt.Errorf("%s from the root: max awake %d exceeds the bound %d", m.Protocol, m.MaxAwake, awake)
	}
	return nil
}

// addMetrics folds a run's simulated statistics into d.
func (d *digest) addMetrics(m broadcast.Metrics) {
	d.add(int64(m.ScheduleLen), int64(m.Rounds), int64(m.Audience), int64(m.Received),
		int64(m.CompletionRound), int64(m.MaxAwake), int64(math.Float64bits(m.MeanAwake)),
		int64(m.Collisions), int64(m.Transmissions))
}

// addStats folds a network's structure and slot statistics into d.
func (d *digest) addStats(s core.Snapshot) {
	d.add(int64(s.Nodes), int64(s.Clusters), int64(s.Gateways), int64(s.Members), int64(s.Height),
		int64(s.BackboneSize), int64(s.BackboneHeight), int64(s.DegreeG), int64(s.DegreeBT),
		int64(s.Delta), int64(s.SmallDelta), int64(s.StructuralRounds), int64(s.SlotRounds))
}

// sameRun reports how two runs of one plan differ, or nil when they agree
// on every simulated statistic.
func sameRun(got, want broadcast.Metrics) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("runs differ:\n  got  %s\n  want %s", got, want)
	}
	return nil
}

// flightDelta converts a cnet topology delta to its recorded form.
func flightDelta(d cnet.Delta) flight.Delta {
	kind := flight.DeltaMoveIn
	switch d.Kind {
	case cnet.DeltaMoveOut:
		kind = flight.DeltaMoveOut
	case cnet.DeltaCrash:
		kind = flight.DeltaCrash
	}
	return flight.Delta{
		Kind: kind, Node: d.Node, Peer: flight.NoParent,
		Reinserted: d.Reinserted, Dropped: d.Dropped, RootChanged: d.RootChanged,
	}
}
