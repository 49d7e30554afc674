package main

import (
	"fmt"

	"dynsens/internal/broadcast"
	"dynsens/internal/dist"
	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// distRuns runs broadcast-mix's ICFF broadcasts on the distributed
// runtime, with each node a goroutine behind an in-memory pipe
// (dist.LocalFleet), and checks each against the in-process kernel's run
// of the same plan.
//
// Untraced runs go through Plan.Run with Runtime dist. Traced runs make
// the calls Plan.Run makes — NewCoordinator, Run, Close — so each gets
// its own span, and time each round from the coordinator's trace-batch
// hook.
type distRuns struct {
	t *tracer

	runs, rounds, crashed float64
	roundUs               []float64
}

// run plans ICFF from src on n and runs it on a LocalFleet.
func (d *distRuns) run(n *network, src graph.NodeID) (broadcast.Metrics, error) {
	t := d.t
	s := t.begin("broadcast.icff_plan")
	plan, err := broadcast.ICFFPlan(n.Slots(), src, 1, nil, nil)
	t.end(s)
	if err != nil {
		return broadcast.Metrics{}, err
	}
	d.runs++
	if t == nil {
		return plan.Run(n.Graph(), broadcast.Options{Runtime: broadcast.RuntimeDist})
	}
	return d.tracedRun(n, plan)
}

// tracedRun runs plan on a LocalFleet the way Plan.Run does for the dist
// runtime, with a span around each coordinator call.
func (d *distRuns) tracedRun(n *network, plan *broadcast.Plan) (broadcast.Metrics, error) {
	t := d.t
	s := t.begin("dist.connect")
	coord, err := dist.NewCoordinator(n.Graph(), dist.NewLocalFleet(plan.Programs))
	t.end(s)
	if err != nil {
		return broadcast.Metrics{}, err
	}
	round, start := 0, int64(0)
	coord.SetTraceBatch(func(evs []radio.Event) {
		now, _ := t.stamp()
		for _, ev := range evs {
			if ev.Round != round {
				if round > 0 {
					d.roundUs = append(d.roundUs, float64(now-start)/1e3/float64(ev.Round-round))
				}
				round, start = ev.Round, now
			}
			if ev.Kind == radio.EvNodeFail {
				d.crashed++
			}
		}
	})
	s = t.begin("dist.run")
	res := coord.Run(plan.ScheduleLen)
	t.end(s)
	runErr := coord.Err()
	s = t.begin("dist.close")
	err = coord.Close()
	t.end(s)
	if runErr != nil {
		return broadcast.Metrics{}, fmt.Errorf("dist run absorbed a fault: %w", runErr)
	}
	if err != nil {
		return broadcast.Metrics{}, err
	}
	d.rounds += float64(res.Rounds)
	m := broadcast.Metrics{
		Protocol: plan.Protocol, ScheduleLen: plan.ScheduleLen, Rounds: res.Rounds, Quiesced: res.Quiesced,
		Audience: len(plan.Audience), MaxAwake: res.MaxAwake(), MeanAwake: res.MeanAwake(),
		Collisions: res.Collisions, Transmissions: res.Transmissions,
		Awake: res.Awake, Listens: res.Listens, Transmits: res.Transmits,
	}
	for _, id := range plan.Audience {
		p, ok := plan.Programs[id].(interface{ Received() (bool, int) })
		if !ok {
			return broadcast.Metrics{}, fmt.Errorf("program of %d does not report reception", id)
		}
		if got, r := p.Received(); got {
			m.Received++
			m.CompletionRound = max(m.CompletionRound, r)
		}
	}
	m.Completed = m.Received == m.Audience
	return m, nil
}

// check verifies a dist run from src on n: within its bounds, and equal
// field by field to the kernel's run of the same plan.
func (d *distRuns) check(n *network, src graph.NodeID, m broadcast.Metrics) error {
	if err := n.b.check(m, src); err != nil {
		return err
	}
	plan, err := broadcast.ICFFPlan(n.Slots(), src, 1, nil, nil)
	if err != nil {
		return err
	}
	kernel, err := plan.Run(n.Graph(), broadcast.Options{})
	if err != nil {
		return err
	}
	if err := sameRun(m, kernel); err != nil {
		return fmt.Errorf("dist and kernel %w", err)
	}
	return nil
}

func (d *distRuns) counts(m map[string]float64) {
	m["dist.rounds"] = d.rounds / max(d.runs, 1)
	m["dist.crashed"] = d.crashed
	m["dist.round_us_p50"] = quantile(d.roundUs, 0.5)
	m["dist.round_us_p99"] = quantile(d.roundUs, 0.99)
}
