package dist

import (
	"fmt"
	"time"

	"dynsens/internal/graph"
	"dynsens/internal/netio/frame"
	"dynsens/internal/radio"
	"dynsens/internal/radio/rounds"
)

// DefaultRoundTimeout bounds how long the coordinator waits for one node's
// answer to one barrier before declaring it crashed. Generous on purpose:
// it only fires for genuinely wedged nodes, and a healthy barrier exchange
// is microseconds.
const DefaultRoundTimeout = 10 * time.Second

// Coordinator drives a fleet of actor nodes through the radio model's
// round structure, one barrier pair per round per node: Act (collect the
// node's action) and Finish (apply the resolved delivery, collect the Done
// bit). Audibility, collision resolution and loss coins come from the same
// internal/radio/rounds core and the same graph adjacency the in-process
// kernel uses, and events flow into the same trace hook, so Run's Result,
// event stream (Event.Seq included) and any recording hung off the hook
// are byte-identical to radio.Engine.Run for the same seed and scenario —
// the distributed runtime's equivalence obligation. A scripted Nemesis
// (crashes, healing partitions; loss via SetLoss) and the unscripted faults
// of real transports (process death, barrier timeout) disturb runs beyond
// what the kernel can express; those runs keep the verifiable-event
// contract (flight.Verify passes) but not byte-equality.
type Coordinator struct {
	g     *graph.Graph
	fleet Fleet
	nodes []graph.NodeID
	idx   map[graph.NodeID]int32
	links []*nodeLink

	nodeFail map[graph.NodeID]int
	linkFail map[rounds.Link]int
	skew     map[graph.NodeID]int
	lossRate float64
	lossSeed uint64
	nemesis  Nemesis
	timeout  time.Duration

	traceBatch func([]radio.Event)
	one        [1]radio.Event
	seq        uint64
	mirror     map[graph.NodeID]radio.Program

	firstErr error
}

// nodeLink is the coordinator's per-node run state: the peer, its reader
// goroutine's channel, and the fault flags.
type nodeLink struct {
	id   graph.NodeID
	peer *Peer
	in   chan frame.Frame
	// crashed: the node violated the protocol or missed a barrier; it is
	// skipped for the rest of the current round and dies (EvNodeFail) at
	// the start of the next.
	crashed bool
	// halted: the connection is finished with (halt sent and/or closed).
	halted bool
}

// NewCoordinator connects one peer per node of g (in ascending node order)
// through the fleet. The fleet's Hellos must introduce exactly the nodes of
// g. The coordinator takes ownership of the fleet: Close tears it down.
func NewCoordinator(g *graph.Graph, fleet Fleet) (*Coordinator, error) {
	c := &Coordinator{
		g:        g,
		fleet:    fleet,
		nodes:    g.Nodes(),
		idx:      make(map[graph.NodeID]int32, g.NumNodes()),
		nodeFail: make(map[graph.NodeID]int),
		linkFail: make(map[rounds.Link]int),
		skew:     make(map[graph.NodeID]int),
		timeout:  DefaultRoundTimeout,
	}
	for i, id := range c.nodes {
		c.idx[id] = int32(i)
	}
	c.links = make([]*nodeLink, len(c.nodes))
	for i, id := range c.nodes {
		peer, err := fleet.Connect(id)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		if peer.Node() != id {
			_ = c.Close()
			return nil, fmt.Errorf("dist: fleet connected node %d where %d was asked for", peer.Node(), id)
		}
		l := &nodeLink{id: id, peer: peer, in: make(chan frame.Frame, 4)}
		c.links[i] = l
		go pump(l)
	}
	return c, nil
}

// pump is l's reader goroutine: it decodes frames off the connection into
// l.in until the stream errors (halt-close, process death, garbage), then
// closes the channel so a pending recv sees the failure immediately.
func pump(l *nodeLink) {
	for {
		var f frame.Frame
		if err := l.peer.dec.Decode(&f); err != nil {
			close(l.in)
			return
		}
		l.in <- f
	}
}

// SetTraceBatch installs the trace callback (nil disables it) with the
// engine's contract: called on the Run goroutine, in the deterministic
// event order. The coordinator hands over single-event batches.
func (c *Coordinator) SetTraceBatch(fn func([]radio.Event)) { c.traceBatch = fn }

// FailNodeAt schedules node id to die at the start of round r, exactly as
// radio.Engine.FailNodeAt does.
func (c *Coordinator) FailNodeAt(id graph.NodeID, r int) { c.nodeFail[id] = r }

// FailLinkAt schedules the link {u, v} to be cut at the start of round r.
func (c *Coordinator) FailLinkAt(u, v graph.NodeID, r int) { c.linkFail[rounds.MkLink(u, v)] = r }

// SetClockSkew gives node id a local clock offset; the coordinator sends
// pre-skewed local rounds in its barriers, so node hosts stay
// skew-ignorant.
func (c *Coordinator) SetClockSkew(id graph.NodeID, offset int) { c.skew[id] = offset }

// SetLoss enables the engine's loss model with the same counter-stream
// coins (internal/radio/rounds): identical seed, identical losses.
func (c *Coordinator) SetLoss(rate float64, seed int64) error {
	if rate < 0 || rate >= 1 {
		return fmt.Errorf("dist: loss rate %v out of [0,1)", rate)
	}
	c.lossRate = rate
	c.lossSeed = uint64(seed)
	return nil
}

// MirrorDeliveries replays every delivery the coordinator hands out into
// the given local Program copies. Out-of-process fleets (ProcFleet)
// execute their own reconstructions of the plan's Programs, so
// reception state interrogated after the run — broadcast's Received()
// metrics fill — would otherwise stay empty on the coordinator side. The
// mirror copies see the exact Deliver(localRound, msg) calls the remote
// nodes do, nothing else; do not set this for fleets that share memory
// with these Programs (LocalFleet), which would deliver twice.
func (c *Coordinator) MirrorDeliveries(programs map[graph.NodeID]radio.Program) {
	c.mirror = programs
}

// SetNemesis installs the scripted fault injector for the next Run.
func (c *Coordinator) SetNemesis(nm Nemesis) { c.nemesis = nm }

// SetRoundTimeout overrides DefaultRoundTimeout; d <= 0 waits forever
// (barrier faults then only surface through transport errors).
func (c *Coordinator) SetRoundTimeout(d time.Duration) { c.timeout = d }

// Err returns the first transport or protocol anomaly the run absorbed as
// a crash (nil on an undisturbed run). The Result stays valid either way —
// faults are part of the simulation, not of its bookkeeping.
func (c *Coordinator) Err() error { return c.firstErr }

// Close tears the fleet down. Idempotent; Run's normal exit already halts
// every node.
func (c *Coordinator) Close() error {
	for _, l := range c.links {
		if l != nil {
			c.haltLink(l, false)
		}
	}
	return c.fleet.Close()
}

func (c *Coordinator) emit(ev radio.Event) {
	c.seq++
	ev.Seq = c.seq
	if c.traceBatch != nil {
		c.one[0] = ev
		c.traceBatch(c.one[:])
	}
}

func (c *Coordinator) noteErr(err error) {
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// send writes one frame to l, bounded by the round timeout so a node that
// stopped reading cannot wedge the barrier.
func (c *Coordinator) send(l *nodeLink, f *frame.Frame) error {
	if c.timeout > 0 {
		if dw, ok := l.peer.conn.(deadlineWriter); ok {
			//lint:ignore dynlint/nondeterminism the barrier timeout bounds a remote peer's I/O, not simulation state; an undisturbed run never hits it, and a hit becomes a deterministic scheduled failure
			_ = dw.SetWriteDeadline(time.Now().Add(c.timeout))
		}
	}
	return l.peer.enc.Encode(f)
}

// recv waits for l's next frame, bounded by the round timeout.
func (c *Coordinator) recv(l *nodeLink) (frame.Frame, error) {
	if c.timeout <= 0 {
		f, ok := <-l.in
		if !ok {
			return frame.Frame{}, fmt.Errorf("dist: node %d: connection lost", l.id)
		}
		return f, nil
	}
	//lint:ignore dynlint/nondeterminism the barrier timeout bounds a remote peer's answer, not simulation state; an undisturbed run never hits it, and a hit becomes a deterministic scheduled failure
	t := time.NewTimer(c.timeout)
	defer t.Stop()
	select {
	case f, ok := <-l.in:
		if !ok {
			return frame.Frame{}, fmt.Errorf("dist: node %d: connection lost", l.id)
		}
		return f, nil
	case <-t.C:
		return frame.Frame{}, fmt.Errorf("dist: node %d: no answer within %v", l.id, c.timeout)
	}
}

// haltLink finishes with a node's connection: optionally a best-effort Halt
// frame (so a healthy remote process exits cleanly), then close.
func (c *Coordinator) haltLink(l *nodeLink, sendHalt bool) {
	if l.halted {
		return
	}
	l.halted = true
	if sendHalt && !l.crashed {
		_ = c.send(l, &frame.Frame{Kind: frame.KindHalt})
	}
	_ = l.peer.conn.Close()
}

// crash marks l crashed mid-round r: it is skipped for the rest of the
// round and scheduled to die — EvNodeFail and all — at the start of round
// r+1, the kernel's failure-schedule semantics for a node that stops
// participating.
func (c *Coordinator) crash(l *nodeLink, r int, sched *rounds.Schedule, deadAt []int, err error) {
	c.noteErr(err)
	l.crashed = true
	i := c.idx[l.id]
	sched.Kill(l.id, r+1)
	if r+1 < deadAt[i] {
		deadAt[i] = r + 1
	}
	c.haltLink(l, false)
}

const neverDies = int(^uint(0) >> 1)

// Run executes up to maxRounds rounds (1-based) and returns the observed
// result, stopping early once every live program is Done — the
// message-passing twin of radio.Engine.Run. Call it once per coordinator.
func (c *Coordinator) Run(maxRounds int) radio.Result {
	n := len(c.nodes)
	res := radio.Result{
		Awake:     make(map[graph.NodeID]int, n),
		Listens:   make(map[graph.NodeID]int, n),
		Transmits: make(map[graph.NodeID]int, n),
	}

	sched := rounds.NewSchedule(c.nodeFail, c.linkFail)
	for _, cr := range c.nemesis.Crashes {
		sched.Kill(cr.Node, cr.Round)
	}
	parts := newPartitions(c.nemesis.Partitions)

	deadAt := make([]int, n)
	doneF := make([]bool, n)
	notDone := 0
	for i, id := range c.nodes {
		deadAt[i] = neverDies
		if r, ok := sched.DeathRound(id); ok {
			deadAt[i] = r
		}
		doneF[i] = c.links[i].peer.hello.Done
		if !doneF[i] && deadAt[i] >= 1 {
			notDone++
		}
	}

	actions := make([]radio.Action, n)
	awake := make([]int, n)
	listens := make([]int, n)
	transmits := make([]int, n)
	var cand []int32
	var lost []int32
	var st rounds.LossStream

	alive := func(i int, round int) bool { return round < deadAt[i] }

	finish := func() radio.Result {
		for i, id := range c.nodes {
			res.Awake[id] = awake[i]
			if listens[i] > 0 {
				res.Listens[id] = listens[i]
			}
			if transmits[i] > 0 {
				res.Transmits[id] = transmits[i]
			}
		}
		for _, l := range c.links {
			c.haltLink(l, true)
		}
		return res
	}

	for round := 1; round <= maxRounds; round++ {
		// Scheduled deaths and cuts fire first and are traced even if this
		// very round quiesces (kernel semantics). The schedule already
		// contains the nemesis crashes and any barrier-fault kills from
		// earlier rounds, sorted into the same deterministic order the
		// kernel emits.
		for _, id := range sched.NodeFails(round) {
			c.emit(radio.Event{Round: round, Kind: radio.EvNodeFail, Node: id})
			i := c.idx[id]
			if !doneF[i] {
				notDone--
			}
			c.haltLink(c.links[i], true)
		}
		for _, lk := range sched.LinkFails(round) {
			c.emit(radio.Event{Round: round, Kind: radio.EvLinkFail, Node: lk.U, Peer: lk.V})
		}
		if notDone == 0 {
			res.Rounds = round - 1
			res.Quiesced = true
			return finish()
		}

		// Act barrier: ask every live node for its action, then collect the
		// answers in ascending node order, emitting transmit events inline —
		// the reference loop's emission order. A node that cannot be asked
		// or does not answer simply sleeps this round and is crashed.
		for i, l := range c.links {
			if !alive(i, round) || l.crashed {
				continue
			}
			lr := round + c.skew[l.id]
			if err := c.send(l, &frame.Frame{Kind: frame.KindAct, Round: lr}); err != nil {
				c.crash(l, round, sched, deadAt, fmt.Errorf("dist: node %d: act send: %w", l.id, err))
			}
		}
		for i, l := range c.links {
			actions[i] = radio.Action{}
			if !alive(i, round) || l.crashed {
				continue
			}
			lr := round + c.skew[l.id]
			f, err := c.recv(l)
			if err != nil {
				c.crash(l, round, sched, deadAt, err)
				continue
			}
			if f.Kind != frame.KindAction || f.Round != lr {
				c.crash(l, round, sched, deadAt,
					fmt.Errorf("dist: node %d: got %v(round %d) at act barrier of round %d", l.id, f.Kind, f.Round, lr))
				continue
			}
			a := f.Action
			switch a.Kind {
			case radio.Sleep:
				// no cost
			case radio.Listen:
				awake[i]++
				listens[i]++
			case radio.Transmit:
				awake[i]++
				transmits[i]++
				res.Transmissions++
				a.Msg.From = l.id
				c.emit(radio.Event{Round: round, Kind: radio.EvTransmit, Node: l.id, Channel: a.Channel, Msg: a.Msg})
			}
			actions[i] = a
		}

		// Resolve: per listener in ascending node order, enumerate the
		// transmitting live-link neighbors on its channel in ascending order
		// (the shared coin-order contract), spend the nemesis partition's
		// frame drops as loss events, then draw the listener's loss coins
		// and classify with the shared rounds core.
		for i, id := range c.nodes {
			a := &actions[i]
			if a.Kind != radio.Listen {
				continue
			}
			ch := a.Channel
			cand = cand[:0]
			for _, nb := range c.g.Neighbors(id) {
				j := c.idx[nb]
				t := &actions[j]
				if t.Kind != radio.Transmit || t.Channel != ch {
					continue
				}
				if !sched.LinkAlive(id, nb, round) {
					continue
				}
				if parts.cuts(round, id, nb) {
					res.Losses++
					c.emit(radio.Event{Round: round, Kind: radio.EvLoss, Node: id, Peer: nb, Channel: ch, Msg: t.Msg})
					continue
				}
				cand = append(cand, j)
			}
			if len(cand) == 0 {
				continue
			}
			if c.lossRate > 0 {
				st = rounds.NewLossStream(c.lossSeed, id, round)
			}
			verdict, win, lostOut := rounds.Resolve(len(cand), c.lossRate, &st, lost[:0])
			lost = lostOut
			for _, ci := range lost {
				j := cand[ci]
				res.Losses++
				c.emit(radio.Event{Round: round, Kind: radio.EvLoss, Node: id, Peer: c.nodes[j], Channel: ch, Msg: actions[j].Msg})
			}
			switch verdict {
			case rounds.Delivered:
				j := cand[win]
				res.Deliveries++
				c.emit(radio.Event{Round: round, Kind: radio.EvDeliver, Node: id, Peer: c.nodes[j], Channel: ch, Msg: actions[j].Msg})
				// Carry the pending delivery to the finish barrier in the
				// listener's own action slot; deliverPending is not Transmit,
				// so later listeners' candidate scans are unaffected.
				actions[i] = radio.Action{Kind: deliverPending, Channel: ch, Msg: actions[j].Msg}
			case rounds.Collided:
				res.Collisions++
				c.emit(radio.Event{Round: round, Kind: radio.EvCollision, Node: id, Channel: ch})
			}
		}

		// Finish barrier: close every live node's round — deliver what it
		// heard, collect its Done bit — in ascending order, mirroring the
		// kernel's deliver phase and its Done re-evaluation.
		for i, l := range c.links {
			if !alive(i, round) || l.crashed {
				continue
			}
			lr := round + c.skew[l.id]
			f := frame.Frame{Kind: frame.KindFinish, Round: lr}
			if actions[i].Kind == deliverPending {
				f.HasMsg = true
				f.Msg = actions[i].Msg
				// The delivery happened this round regardless of what the
				// node does next (kernel semantics), so the mirror copy
				// records it even if the finish send below crashes the link.
				if prog := c.mirror[l.id]; prog != nil {
					prog.Deliver(lr, f.Msg)
				}
			}
			if err := c.send(l, &f); err != nil {
				c.crash(l, round, sched, deadAt, fmt.Errorf("dist: node %d: finish send: %w", l.id, err))
			}
		}
		for i, l := range c.links {
			if !alive(i, round) || l.crashed {
				continue
			}
			lr := round + c.skew[l.id]
			f, err := c.recv(l)
			if err != nil {
				c.crash(l, round, sched, deadAt, err)
				continue
			}
			if f.Kind != frame.KindStatus || f.Round != lr {
				c.crash(l, round, sched, deadAt,
					fmt.Errorf("dist: node %d: got %v(round %d) at finish barrier of round %d", l.id, f.Kind, f.Round, lr))
				continue
			}
			if !doneF[i] && f.Done {
				doneF[i] = true
				notDone--
			}
		}
		res.Rounds = round
	}

	// Deaths scheduled for round maxRounds+1 precede the final quiescence
	// check but fall outside the loop, so they emit no events (kernel
	// semantics).
	for _, id := range sched.NodeFails(maxRounds + 1) {
		if i := c.idx[id]; !doneF[i] {
			notDone--
		}
	}
	res.Quiesced = notDone == 0
	return finish()
}

// deliverPending is a private ActionKind value the resolve loop uses to
// carry "this listener received Msg" to the finish barrier inside the
// actions slice. It never crosses the wire and never reaches a Program.
const deliverPending radio.ActionKind = -1
