package main

import (
	"fmt"
	"math/rand"
	"time"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/graph"
	"dynsens/internal/workload"
)

// Broadcast kinds of broadcast-mix.
const (
	kindICFF = iota
	kindCFF
	kindDFO
	kindMulticast
	kindFaulty
	kindDist
)

// mixPattern is broadcast-mix's ten-op cycle: 5 ICFF, 2 CFF, 1 multicast,
// 1 DFO and 1 faulty ICFF.
var mixPattern = [10]int{kindICFF, kindCFF, kindICFF, kindMulticast, kindICFF, kindDFO, kindICFF, kindCFF, kindICFF, kindFaulty}

// mixGroup is the multicast group broadcast-mix sends to.
const mixGroup = 1

// mixBench is broadcast-mix: networks built in set-up and never changed
// serve broadcasts back to back from seeded sources, ten ops (one pattern
// cycle) per network in turn. After each pass over the networks one ICFF
// broadcast runs on the distributed runtime, over the fleet networks in
// turn. One op plans and runs one broadcast.
type mixBench struct {
	nets  []network
	fleet []network
	rng   *rand.Rand
	t     *tracer
	radio radioStats
	dist  distRuns

	cur  *network
	kind int
	src  graph.NodeID
	m    broadcast.Metrics
}

func setupMix(seed int64, sz sizes, t *tracer) (bench, error) {
	nets, err := buildNetworks(seed, 0, sz.mix, sz.mixNets)
	if err != nil {
		return nil, err
	}
	fleet, err := buildNetworks(seed, fleetFirst, sz.fleet, sz.fleetNets)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, n := range nets {
		joined := 0
		for _, id := range n.nodes {
			if rng.Float64() < 0.2 {
				if err := n.JoinGroup(id, mixGroup); err != nil {
					return nil, err
				}
				joined++
			}
		}
		if joined == 0 {
			if err := n.JoinGroup(n.Root(), mixGroup); err != nil {
				return nil, err
			}
		}
	}
	return &mixBench{nets: nets, fleet: fleet, rng: rng, t: t, radio: newRadioStats(t), dist: distRuns{t: t}}, nil
}

// fleetFirst is the index of the first fleet network among a run's
// networks, so that their seeds differ from the others'.
const fleetFirst = 100

// network is a verified network with its node list and bounds.
type network struct {
	*core.Network
	nodes []graph.NodeID
	b     bounds
}

// buildNetworks deploys networks first to first+k-1 of n nodes at paper
// density and builds and verifies each.
func buildNetworks(seed int64, first, n, k int) ([]network, error) {
	var nets []network
	for j := first; j < first+k; j++ {
		d, err := workload.IncrementalConnected(paperConfig(subSeed(seed, j), n))
		if err != nil {
			return nil, err
		}
		net, err := core.Build(d.Graph(), core.Config{})
		if err != nil {
			return nil, err
		}
		if err := net.Verify(); err != nil {
			return nil, err
		}
		nets = append(nets, network{Network: net, nodes: net.CNet().Tree().Nodes(), b: boundsOf(net.Slots())})
	}
	return nets, nil
}

func (b *mixBench) op(i int) (time.Duration, error) {
	t := b.t
	pass := len(b.nets)*len(mixPattern) + 1
	j := i % pass
	if j == pass-1 {
		b.cur, b.kind = &b.fleet[i/pass%len(b.fleet)], kindDist
		b.src = b.cur.nodes[b.rng.Intn(len(b.cur.nodes))]
		var err error
		b.m, err = b.dist.run(b.cur, b.src)
		return 0, err
	}
	n := &b.nets[j/len(mixPattern)]
	b.cur, b.kind = n, mixPattern[j%len(mixPattern)]
	b.src = n.nodes[b.rng.Intn(len(n.nodes))]
	opts := broadcast.Options{Perf: b.radio.perf}
	var plan *broadcast.Plan
	var err error
	slots := n.Slots()
	switch b.kind {
	case kindICFF:
		s := t.begin("broadcast.icff_plan")
		plan, err = broadcast.ICFFPlan(slots, b.src, 1, nil, nil)
		t.end(s)
	case kindCFF:
		s := t.begin("broadcast.cff_plan")
		plan, err = broadcast.CFFPlan(slots, b.src, 1)
		t.end(s)
	case kindDFO:
		s := t.begin("broadcast.dfo_plan")
		plan, err = broadcast.DFOPlan(n.CNet(), b.src)
		t.end(s)
	case kindMulticast:
		s := t.begin("multicast.plan")
		plan, err = n.Groups().Plan(slots, mixGroup, b.src, 1)
		t.end(s)
	case kindFaulty:
		// Two channels, 10% frame loss and 5% of the nodes failing
		// during the schedule.
		s := t.begin("broadcast.icff_plan")
		plan, err = broadcast.ICFFPlan(slots, b.src, 2, nil, nil)
		t.end(s)
		if err != nil {
			break
		}
		opts.Channels, opts.LossRate, opts.LossSeed = 2, 0.1, b.rng.Int63()
		s = t.begin("workload.failures")
		for _, f := range workload.FailureTrace(n.Graph(), b.src, 0.05, plan.ScheduleLen, b.rng.Int63()) {
			opts.Failures = append(opts.Failures, broadcast.NodeFailure{Node: f.Node, Round: f.Round})
		}
		t.end(s)
	}
	if err != nil {
		return 0, err
	}
	s := t.begin("radio.run")
	b.m, err = plan.Run(n.Graph(), opts)
	t.end(s)
	if err != nil {
		return 0, err
	}
	b.radio.note(plan, b.m)
	return 0, nil
}

func (b *mixBench) after(i int, d *digest) error {
	m := b.m
	d.add(int64(b.kind), int64(b.src))
	d.addMetrics(m)
	switch b.kind {
	case kindDist:
		if err := b.dist.check(b.cur, b.src, m); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	case kindFaulty:
		if m.Received > m.Audience || m.Rounds > m.ScheduleLen {
			return fmt.Errorf("faulty ICFF from %d: %d/%d received in %d of %d rounds", b.src, m.Received, m.Audience, m.Rounds, m.ScheduleLen)
		}
	default:
		return b.cur.b.check(m, b.src)
	}
	return nil
}

func (b *mixBench) finish(*digest) error { return nil }

func (b *mixBench) counts(m map[string]float64, _ int) {
	b.radio.counts(m)
	b.dist.counts(m)
}
