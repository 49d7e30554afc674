package main

import (
	"fmt"
	"time"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/geom"
	"dynsens/internal/graph"
	"dynsens/internal/multicast"
	"dynsens/internal/timeslot"
	"dynsens/internal/workload"
)

// churnEvery is how many churn ops pass between two ICFF broadcasts.
const churnEvery = 100

// churnBench is churn-steady: one op applies one event of a seeded churn
// trace — a join through node-move-in or a leave through node-move-out,
// each followed by the incremental time-slot repair — to one of the
// run's networks, churnEvery ops per network in turn, and after each such
// block the sink of that network broadcasts with ICFF. Set-up builds the
// networks and their traces; a network whose trace is used up is rebuilt
// (untimed) and its trace replayed.
//
// Untraced runs go through core.Network.Join and Leave. Traced runs drive
// the layers core is made of in core's order, so each gets its own span:
// cnet.MoveIn then timeslot.OnJoin, or cnet.MoveOut then
// timeslot.OnMoveOut then multicast.OnMoveOut.
type churnBench struct {
	nets  []*churnNet
	t     *tracer
	radio radioStats

	cur *churnNet
	ev  workload.Event
	bm  *broadcast.Metrics

	structOps, reinserted, rootRebuilds, recalcs, maint float64
}

// churnNet is one network of churn-steady and its trace.
type churnNet struct {
	cfg    workload.Config
	base   *geom.Deployment
	events []workload.Event
	pos    int // next event

	udg        *workload.UDGState
	net        *core.Network // untraced runs only
	c          *cnet.CNet
	slots      *timeslot.Assignment
	groups     *multicast.MCNet
	structural int // traced runs: accumulated structural cost
}

func setupChurn(seed int64, sz sizes, t *tracer) (bench, error) {
	b := &churnBench{t: t, radio: newRadioStats(t)}
	for j := 0; j < sz.churnNets; j++ {
		cfg := paperConfig(subSeed(seed, j), sz.churn)
		base, events, err := workload.ChurnTrace(cfg, sz.churnEvents, 0.4)
		if err != nil {
			return nil, err
		}
		n := &churnNet{cfg: cfg, base: base, events: events}
		if err := n.reset(t != nil); err != nil {
			return nil, err
		}
		b.nets = append(b.nets, n)
	}
	return b, nil
}

// reset builds the network over the trace's initial deployment, through
// core or, when traced, through its layers.
func (n *churnNet) reset(traced bool) error {
	n.udg = workload.NewUDGState(n.cfg.Region, n.cfg.Range)
	for i, p := range n.base.Pos {
		if _, err := n.udg.Join(graph.NodeID(i), p); err != nil {
			return err
		}
	}
	var cfg core.Config
	g := n.base.Graph()
	if !traced {
		net, err := core.Build(g, cfg)
		if err != nil {
			return err
		}
		n.net, n.c, n.slots = net, net.CNet(), net.Slots()
		return nil
	}
	c, cost, err := cnet.BuildFromGraphObserved(g, cfg.Root, cfg.Policy, cfg.DeltaHook)
	if err != nil {
		return err
	}
	n.c, n.slots, n.groups = c, timeslot.New(c, cfg.SlotCondition), multicast.New(c)
	n.structural = cost.Total()
	return nil
}

func (b *churnBench) op(i int) (time.Duration, error) {
	t := b.t
	n := b.nets[i/churnEvery%len(b.nets)]
	b.cur, b.ev = n, n.events[n.pos]
	recalcs, maint := n.slots.Recalcs(), n.slots.Rounds()
	s := t.begin("workload.apply")
	nbrs, err := n.udg.Apply(b.ev)
	t.end(s)
	if err != nil {
		return 0, err
	}
	if t == nil {
		if b.ev.Kind == workload.Join {
			err = n.net.Join(b.ev.Node, nbrs)
		} else {
			err = n.net.Leave(b.ev.Node)
		}
	} else {
		err = b.tracedOp(nbrs)
	}
	if err != nil {
		return 0, fmt.Errorf("churn op %d (%s %d): %w", i, b.ev.Kind, b.ev.Node, err)
	}
	b.recalcs += float64(n.slots.Recalcs() - recalcs)
	b.maint += float64(n.slots.Rounds() - maint)
	if (i+1)%churnEvery != 0 {
		return 0, nil
	}
	start := time.Now()
	err = b.broadcast()
	return time.Since(start), err
}

// tracedOp applies the current event through the layers, in the order
// core.Network.Join and Leave call them.
func (b *churnBench) tracedOp(nbrs []graph.NodeID) error {
	t, n := b.t, b.cur
	if b.ev.Kind == workload.Join {
		s := t.begin("cnet.movein")
		_, cost, err := n.c.MoveIn(b.ev.Node, nbrs)
		t.end(s)
		if err != nil {
			return err
		}
		n.structural += cost.Total()
		b.structOps += float64(cost.Total())
		s = t.begin("timeslot.onjoin")
		err = n.slots.OnJoin(b.ev.Node)
		t.end(s)
		return err
	}
	s := t.begin("cnet.moveout")
	rec, cost, err := n.c.MoveOut(b.ev.Node)
	t.end(s)
	if err != nil {
		return err
	}
	n.structural += cost.Total()
	b.structOps += float64(cost.Total())
	b.reinserted += float64(len(rec.Reinserted))
	if rec.RootChanged {
		b.rootRebuilds++
	}
	s = t.begin("timeslot.onmoveout")
	err = n.slots.OnMoveOut(rec)
	t.end(s)
	if err != nil {
		return err
	}
	s = t.begin("multicast.onmoveout")
	n.groups.OnMoveOut(rec)
	t.end(s)
	return nil
}

// broadcast runs ICFF from the sink over the current network.
func (b *churnBench) broadcast() error {
	t, n := b.t, b.cur
	s := t.begin("broadcast.plan")
	plan, err := broadcast.ICFFPlan(n.slots, n.c.Root(), 1, nil, nil)
	t.end(s)
	if err != nil {
		return err
	}
	s = t.begin("radio.run")
	m, err := plan.Run(n.c.Graph(), broadcast.Options{Perf: b.radio.perf})
	t.end(s)
	if err != nil {
		return err
	}
	b.radio.note(plan, m)
	b.bm = &m
	return nil
}

func (b *churnBench) after(i int, d *digest) error {
	n := b.cur
	d.add(int64(b.ev.Kind), int64(b.ev.Node), int64(n.c.Size()), int64(n.slots.Recalcs()), int64(n.slots.Rounds()))
	if b.bm != nil {
		m := *b.bm
		b.bm = nil
		if err := boundsOf(n.slots).check(m, n.c.Root()); err != nil {
			return fmt.Errorf("broadcast after churn op %d: %w", i, err)
		}
		d.addMetrics(m)
	}
	if n.pos++; n.pos == len(n.events) {
		n.pos = 0
		return n.reset(b.t != nil)
	}
	return nil
}

// finish runs the full Verify of every network.
func (b *churnBench) finish(d *digest) error {
	t := b.t
	for j, n := range b.nets {
		var err error
		s := t.begin("core.verify")
		if t == nil {
			err = n.net.Verify()
		} else {
			err = verifyLayers(n.c, n.slots, n.groups)
		}
		t.end(s)
		if err != nil {
			return fmt.Errorf("network %d fails Verify at the end: %w", j, err)
		}
		if t == nil {
			d.addStats(n.net.Stats())
		} else {
			d.addStats(core.Snapshot{
				Stats: n.c.ComputeStats(), Delta: n.slots.Delta(), SmallDelta: n.slots.SmallDelta(),
				StructuralRounds: n.structural, SlotRounds: n.slots.Rounds(),
			})
		}
	}
	return nil
}

// verifyLayers makes the checks core.Network.Verify makes, on the layers
// directly.
func verifyLayers(c *cnet.CNet, slots *timeslot.Assignment, groups *multicast.MCNet) error {
	if err := c.Verify(); err != nil {
		return err
	}
	if err := slots.Verify(); err != nil {
		return err
	}
	if err := slots.CheckBounds(); err != nil {
		return err
	}
	return groups.Verify()
}

func (b *churnBench) counts(m map[string]float64, ops int) {
	n := float64(ops)
	m["cnet.structural_rounds"] = b.structOps / n
	m["cnet.reinserted"] = b.reinserted / n
	m["cnet.root_rebuilds"] = b.rootRebuilds / n
	m["timeslot.recalcs"] = b.recalcs / n
	m["timeslot.maint_rounds"] = b.maint / n
	b.radio.counts(m)
}
