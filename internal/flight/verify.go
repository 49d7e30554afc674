package flight

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"dynsens/internal/graph"
	"dynsens/internal/radio"
)

// Check is one verifier probe: a named invariant, whether it could be
// evaluated, and the failure when it did not hold.
type Check struct {
	Name string
	// Skipped marks checks the recording does not carry enough evidence
	// for (ring truncation, missing footer, injected churn); Detail says
	// why, or what was measured on success.
	Skipped bool
	Detail  string
	Err     error
}

// Report is the outcome of an offline verification pass.
type Report struct {
	Checks []Check
}

// Passed reports whether every evaluated check held.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if c.Err != nil {
			return false
		}
	}
	return true
}

// Write renders the report, one line per check plus a verdict line.
func (r *Report) Write(w io.Writer) error {
	failed := 0
	for _, c := range r.Checks {
		var line string
		switch {
		case c.Err != nil:
			failed++
			line = fmt.Sprintf("FAIL %-20s %v", c.Name, c.Err)
		case c.Skipped:
			line = fmt.Sprintf("skip %-20s %s", c.Name, c.Detail)
		default:
			line = fmt.Sprintf("ok   %-20s %s", c.Name, c.Detail)
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
	}
	verdict := fmt.Sprintf("verifier: PASS (%d checks)", len(r.Checks))
	if failed > 0 {
		verdict = fmt.Sprintf("verifier: FAIL (%d of %d checks)", failed, len(r.Checks))
	}
	_, err := fmt.Fprintln(w, verdict)
	return err
}

func (r *Report) add(name string, err error, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, Err: err, Detail: detail})
}

func (r *Report) skip(name, why string) {
	r.Checks = append(r.Checks, Check{Name: name, Skipped: true, Detail: why})
}

// ceilDiv is ceil(a/b) for b > 0.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Verify re-checks the paper's invariants against a recording, offline:
// the event stream is gap-free and ordered (satellite: sequence numbers),
// the recorded structure satisfies Definition 1 / Property 1, the slots
// respect the Lemma 2/3 bounds, every reception is physically consistent
// with the radio model, failure-free runs are collision-free, the run fits
// the Lemma 1 / Theorem 1 round budget for its protocol, and the footer's
// aggregates match the events they summarize.
func Verify(rec *Recording) *Report {
	rep := &Report{}
	v := &verifier{rec: rec, rep: rep}
	v.prepare()
	v.checkSequence()
	v.checkStructure()
	v.checkSlotBounds()
	v.checkPhases()
	v.checkDeliveries()
	v.checkCollisionFreedom()
	v.checkRoundBound()
	v.checkFooter()
	v.checkConstructionDeltas()
	return rep
}

type verifier struct {
	rec *Recording
	rep *Report

	nodes map[graph.NodeID]*NodeInfo
	// adj holds each recorded node's G-neighbors ascending and without
	// duplicates; adjacent checks an edge by binary search.
	adj     map[graph.NodeID][]graph.NodeID
	root    graph.NodeID
	hasRoot bool
	depth   map[graph.NodeID]int // recomputed from parents

	nodeDied map[graph.NodeID]int
	linkCut  map[Edge]int
}

func (v *verifier) prepare() {
	r := v.rec
	v.nodes = make(map[graph.NodeID]*NodeInfo, len(r.Nodes))
	for i := range r.Nodes {
		v.nodes[r.Nodes[i].ID] = &r.Nodes[i]
	}
	v.buildAdjacency()
	for id, n := range v.nodes {
		if n.Parent == NoParent {
			if !v.hasRoot {
				v.root = id
				v.hasRoot = true
			}
		}
	}
	v.nodeDied = make(map[graph.NodeID]int)
	v.linkCut = make(map[Edge]int)
	for _, ev := range r.Events {
		switch ev.Kind {
		case radio.EvNodeFail:
			if _, ok := v.nodeDied[ev.Node]; !ok {
				v.nodeDied[ev.Node] = ev.Round
			}
		case radio.EvLinkFail:
			e := normEdge(ev.Node, ev.Peer)
			if _, ok := v.linkCut[e]; !ok {
				v.linkCut[e] = ev.Round
			}
		}
	}
}

// buildAdjacency fills adj from the edges whose endpoints are both
// recorded nodes. The lists share one backing array, sized by a degree
// count, and are sorted and deduplicated in place.
func (v *verifier) buildAdjacency() {
	deg := make(map[graph.NodeID]int, len(v.nodes))
	total := 0
	for _, e := range v.rec.Edges {
		if v.nodes[e.U] != nil && v.nodes[e.V] != nil {
			deg[e.U]++
			deg[e.V]++
			total += 2
		}
	}
	backing := make([]graph.NodeID, total)
	v.adj = make(map[graph.NodeID][]graph.NodeID, len(deg))
	off := 0
	for id, k := range deg {
		v.adj[id] = backing[off : off : off+k]
		off += k
	}
	for _, e := range v.rec.Edges {
		if v.nodes[e.U] != nil && v.nodes[e.V] != nil {
			v.adj[e.U] = append(v.adj[e.U], e.V)
			v.adj[e.V] = append(v.adj[e.V], e.U)
		}
	}
	for id, peers := range v.adj {
		slices.Sort(peers)
		v.adj[id] = slices.Compact(peers)
	}
}

// adjacent reports whether the recording has a G-edge u-w.
func (v *verifier) adjacent(u, w graph.NodeID) bool {
	_, ok := slices.BinarySearch(v.adj[u], w)
	return ok
}

func normEdge(u, vv graph.NodeID) Edge {
	if u > vv {
		u, vv = vv, u
	}
	return Edge{U: u, V: vv}
}

// clean reports whether the run was undisturbed: no injected failures, no
// loss model, no ring truncation — the preconditions of the paper's
// collision-freedom guarantee.
func (v *verifier) clean() bool {
	if v.rec.Header.LossRate != 0 || v.rec.Dropped() > 0 {
		return false
	}
	if len(v.nodeDied) > 0 || len(v.linkCut) > 0 {
		return false
	}
	for _, d := range v.rec.Deltas {
		if d.Kind == DeltaNodeFail || d.Kind == DeltaLinkFail {
			return false
		}
	}
	for _, ev := range v.rec.Events {
		if ev.Kind == radio.EvLoss {
			return false
		}
	}
	return true
}

// checkSequence verifies the satellite guarantee: event sequence numbers
// are contiguous (gap detection) and rounds never decrease, so the
// recording reproduces the exact per-round event order of the run.
func (v *verifier) checkSequence() {
	evs := v.rec.Events
	if len(evs) == 0 {
		v.rep.skip("event-sequence", "no events recorded")
		return
	}
	prev := evs[0].Seq
	prevRound := evs[0].Round
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != prev+1 {
			v.rep.add("event-sequence",
				fmt.Errorf("flight: gap: event %d has seq %d after %d", i, evs[i].Seq, prev), "")
			return
		}
		if evs[i].Round < prevRound {
			v.rep.add("event-sequence",
				fmt.Errorf("flight: round went backwards: seq %d at round %d after round %d",
					evs[i].Seq, evs[i].Round, prevRound), "")
			return
		}
		prev = evs[i].Seq
		prevRound = evs[i].Round
	}
	if v.rec.Dropped() == 0 && evs[0].Seq != 1 {
		v.rep.add("event-sequence",
			fmt.Errorf("flight: unbounded recording starts at seq %d, not 1", evs[0].Seq), "")
		return
	}
	v.rep.add("event-sequence", nil,
		fmt.Sprintf("%d events, seq %d..%d, contiguous", len(evs), evs[0].Seq, prev))
}

// checkStructure re-checks Definition 1 / Property 1 from the recorded
// roles, parents and edges (mirroring cnet.Verify, but with zero trust in
// the live structures).
func (v *verifier) checkStructure() {
	const name = "structure"
	if len(v.rec.Nodes) == 0 {
		v.rep.skip(name, "no topology recorded")
		return
	}
	if !v.hasRoot {
		v.rep.add(name, fmt.Errorf("flight: no root (node with no parent) recorded"), "")
		return
	}
	roots := 0
	for _, n := range v.nodes {
		if n.Parent == NoParent {
			roots++
		}
	}
	if roots != 1 {
		v.rep.add(name, fmt.Errorf("flight: %d roots recorded, want 1", roots), "")
		return
	}
	// Recompute depths by walking parents; detects cycles and orphans.
	v.depth = make(map[graph.NodeID]int, len(v.nodes))
	var depthOf func(id graph.NodeID, hops int) (int, error)
	depthOf = func(id graph.NodeID, hops int) (int, error) {
		if d, ok := v.depth[id]; ok {
			return d, nil
		}
		if hops > len(v.nodes) {
			return 0, fmt.Errorf("flight: parent cycle at node %d", id)
		}
		n, ok := v.nodes[id]
		if !ok {
			return 0, fmt.Errorf("flight: parent %d not recorded", id)
		}
		if n.Parent == NoParent {
			v.depth[id] = 0
			return 0, nil
		}
		pd, err := depthOf(n.Parent, hops+1)
		if err != nil {
			return 0, err
		}
		v.depth[id] = pd + 1
		return pd + 1, nil
	}
	children := make(map[graph.NodeID][]graph.NodeID)
	for id, n := range v.nodes {
		d, err := depthOf(id, 0)
		if err != nil {
			v.rep.add(name, err, "")
			return
		}
		if d != n.Depth {
			v.rep.add(name, fmt.Errorf("flight: node %d recorded depth %d, parent walk gives %d", id, n.Depth, d), "")
			return
		}
		if n.Parent != NoParent {
			if !v.adjacent(id, n.Parent) {
				v.rep.add(name, fmt.Errorf("flight: tree edge %d-%d is not a recorded G edge", id, n.Parent), "")
				return
			}
			children[n.Parent] = append(children[n.Parent], id)
		}
	}
	if v.nodes[v.root].Role != RoleHead {
		v.rep.add(name, fmt.Errorf("flight: root %d is %s, not a head", v.root, RoleName(v.nodes[v.root].Role)), "")
		return
	}
	for id, n := range v.nodes {
		d := v.depth[id]
		switch n.Role {
		case RoleHead:
			if d%2 != 0 {
				v.rep.add(name, fmt.Errorf("flight: head %d at odd depth %d", id, d), "")
				return
			}
			if n.Parent != NoParent && v.nodes[n.Parent].Role != RoleGateway {
				v.rep.add(name, fmt.Errorf("flight: head %d has non-gateway parent %d", id, n.Parent), "")
				return
			}
		case RoleGateway:
			if d%2 != 1 {
				v.rep.add(name, fmt.Errorf("flight: gateway %d at even depth %d", id, d), "")
				return
			}
			if n.Parent == NoParent || v.nodes[n.Parent].Role != RoleHead {
				v.rep.add(name, fmt.Errorf("flight: gateway %d parent is not a head", id), "")
				return
			}
			for _, c := range children[id] {
				if v.nodes[c].Role != RoleHead {
					v.rep.add(name, fmt.Errorf("flight: gateway %d has non-head child %d", id, c), "")
					return
				}
				if !v.adjacent(id, c) {
					v.rep.add(name, fmt.Errorf("flight: gateway %d not adjacent to child head %d", id, c), "")
					return
				}
			}
		case RoleMember:
			if d%2 != 1 {
				v.rep.add(name, fmt.Errorf("flight: member %d at even depth %d", id, d), "")
				return
			}
			if len(children[id]) > 0 {
				v.rep.add(name, fmt.Errorf("flight: member %d is not a leaf", id), "")
				return
			}
			if n.Parent == NoParent || v.nodes[n.Parent].Role != RoleHead {
				v.rep.add(name, fmt.Errorf("flight: member %d parent is not a head", id), "")
				return
			}
		default:
			v.rep.add(name, fmt.Errorf("flight: node %d has unknown role %q", id, n.Role), "")
			return
		}
	}
	// Property 1(2): heads are an independent set of G.
	for id, n := range v.nodes {
		if n.Role != RoleHead {
			continue
		}
		for _, peer := range v.adj[id] {
			if p, ok := v.nodes[peer]; ok && p.Role == RoleHead {
				v.rep.add(name, fmt.Errorf("flight: adjacent heads %d and %d", id, peer), "")
				return
			}
		}
	}
	heads, gws, members := 0, 0, 0
	for _, n := range v.nodes {
		switch n.Role {
		case RoleHead:
			heads++
		case RoleGateway:
			gws++
		case RoleMember:
			members++
		}
	}
	v.rep.add(name, nil, fmt.Sprintf("%d nodes: %d heads, %d gateways, %d members (Definition 1 holds)",
		len(v.nodes), heads, gws, members))
}

// degrees returns D (max degree of G) and d (max degree of the subgraph
// induced by the backbone node set), recomputed from the recorded edges.
func (v *verifier) degrees() (bigD, smallD int) {
	for id, peers := range v.adj {
		if len(peers) > bigD {
			bigD = len(peers)
		}
		n, ok := v.nodes[id]
		if !ok || n.Role == RoleMember {
			continue
		}
		deg := 0
		for _, peer := range peers {
			if p, ok := v.nodes[peer]; ok && p.Role != RoleMember {
				deg++
			}
		}
		if deg > smallD {
			smallD = deg
		}
	}
	return bigD, smallD
}

// checkSlotBounds re-checks Lemma 3 offline: no recorded b-slot exceeds
// d(d+1)/2+1 and no l-/u-slot exceeds D(D+1)/2+1, with D and d recomputed
// from the recorded edges rather than trusted.
func (v *verifier) checkSlotBounds() {
	const name = "slot-bounds"
	if len(v.rec.Nodes) == 0 {
		v.rep.skip(name, "no topology recorded")
		return
	}
	bigD, smallD := v.degrees()
	boundB := smallD*(smallD+1)/2 + 1
	boundL := bigD*(bigD+1)/2 + 1
	maxB, maxL, maxU := 0, 0, 0
	for _, n := range v.rec.Nodes {
		if n.BSlot < 0 || n.LSlot < 0 || n.USlot < 0 {
			v.rep.add(name, fmt.Errorf("flight: node %d has a negative slot", n.ID), "")
			return
		}
		if n.BSlot > maxB {
			maxB = n.BSlot
		}
		if n.LSlot > maxL {
			maxL = n.LSlot
		}
		if n.USlot > maxU {
			maxU = n.USlot
		}
	}
	if maxB > boundB {
		v.rep.add(name, fmt.Errorf("flight: max b-slot %d exceeds Lemma 3 bound d(d+1)/2+1 = %d (d=%d)", maxB, boundB, smallD), "")
		return
	}
	if maxL > boundL {
		v.rep.add(name, fmt.Errorf("flight: max l-slot %d exceeds Lemma 3 bound D(D+1)/2+1 = %d (D=%d)", maxL, boundL, bigD), "")
		return
	}
	if maxU > boundL {
		v.rep.add(name, fmt.Errorf("flight: max u-slot %d exceeds Lemma 3 bound D(D+1)/2+1 = %d (D=%d)", maxU, boundL, bigD), "")
		return
	}
	v.rep.add(name, nil, fmt.Sprintf("delta=%d<=%d Delta=%d<=%d Delta_u=%d<=%d", maxB, boundB, maxL, boundL, maxU, boundL))
}

// checkPhases verifies the recorded phase markers are ordered, and that
// every transmission falls inside a declared phase.
func (v *verifier) checkPhases() {
	const name = "phase-markers"
	phases := v.rec.Phases
	if len(phases) == 0 {
		v.rep.skip(name, "no phases recorded")
		return
	}
	prevHi := 0
	for _, p := range phases {
		if p.Lo < 1 || p.Hi < p.Lo {
			v.rep.add(name, fmt.Errorf("flight: phase %q has invalid range [%d,%d]", p.Name, p.Lo, p.Hi), "")
			return
		}
		if p.Lo <= prevHi {
			v.rep.add(name, fmt.Errorf("flight: phase %q starts at %d inside the previous phase (ends %d)", p.Name, p.Lo, prevHi), "")
			return
		}
		prevHi = p.Hi
	}
	for _, ev := range v.rec.Events {
		if ev.Kind != radio.EvTransmit {
			continue
		}
		inPhase := false
		for _, p := range phases {
			if ev.Round >= p.Lo && ev.Round <= p.Hi {
				inPhase = true
				break
			}
		}
		if !inPhase {
			v.rep.add(name, fmt.Errorf("flight: transmission by %d in round %d outside every phase", ev.Node, ev.Round), "")
			return
		}
	}
	names := make([]string, len(phases))
	for i, p := range phases {
		names[i] = fmt.Sprintf("%s[%d,%d]", p.Name, p.Lo, p.Hi)
	}
	v.rep.add(name, nil, strings.Join(names, " "))
}

// checkDeliveries replays the radio model over the event stream: a
// reception in round r on channel c is legal iff, of the transmitters the
// listener is adjacent to on that channel in that round, exactly one frame
// survived the loss model and live links — and it is the recorded peer. A
// collision event requires at least two surviving frames.
func (v *verifier) checkDeliveries() {
	const name = "delivery-consistency"
	if v.rec.Dropped() > 0 {
		v.rep.skip(name, "ring truncation dropped events")
		return
	}
	if len(v.rec.Nodes) == 0 {
		v.rep.skip(name, "no topology recorded")
		return
	}
	type rc struct {
		round int
		ch    radio.Channel
	}
	txs := make(map[rc][]graph.NodeID)
	lost := make(map[rc]map[graph.NodeID]map[graph.NodeID]bool) // listener -> transmitter
	for _, ev := range v.rec.Events {
		key := rc{ev.Round, ev.Channel}
		switch ev.Kind {
		case radio.EvTransmit:
			txs[key] = append(txs[key], ev.Node)
		case radio.EvLoss:
			if lost[key] == nil {
				lost[key] = make(map[graph.NodeID]map[graph.NodeID]bool)
			}
			if lost[key][ev.Node] == nil {
				lost[key][ev.Node] = make(map[graph.NodeID]bool)
			}
			lost[key][ev.Node][ev.Peer] = true
		}
	}
	heard := func(listener graph.NodeID, key rc) []graph.NodeID {
		var out []graph.NodeID
		for _, t := range txs[key] {
			if t == listener || !v.adjacent(listener, t) {
				continue
			}
			if cutAt, ok := v.linkCut[normEdge(listener, t)]; ok && key.round >= cutAt {
				continue
			}
			if lost[key][listener][t] {
				continue
			}
			out = append(out, t)
		}
		return out
	}
	rx, colls := 0, 0
	for _, ev := range v.rec.Events {
		key := rc{ev.Round, ev.Channel}
		switch ev.Kind {
		case radio.EvDeliver:
			h := heard(ev.Node, key)
			if len(h) != 1 || h[0] != ev.Peer {
				v.rep.add(name, fmt.Errorf("flight: round %d: node %d received from %d but heard %v on ch %d",
					ev.Round, ev.Node, ev.Peer, h, ev.Channel), "")
				return
			}
			if diedAt, ok := v.nodeDied[ev.Node]; ok && ev.Round >= diedAt {
				v.rep.add(name, fmt.Errorf("flight: round %d: dead node %d received", ev.Round, ev.Node), "")
				return
			}
			rx++
		case radio.EvCollision:
			if h := heard(ev.Node, key); len(h) < 2 {
				v.rep.add(name, fmt.Errorf("flight: round %d: node %d reported a collision but heard %v on ch %d",
					ev.Round, ev.Node, h, ev.Channel), "")
				return
			}
			colls++
		case radio.EvTransmit:
			if diedAt, ok := v.nodeDied[ev.Node]; ok && ev.Round >= diedAt {
				v.rep.add(name, fmt.Errorf("flight: round %d: dead node %d transmitted", ev.Round, ev.Node), "")
				return
			}
		}
	}
	v.rep.add(name, nil, fmt.Sprintf("%d receptions and %d collisions consistent with the radio model", rx, colls))
}

// checkCollisionFreedom asserts the paper's core guarantee on undisturbed
// runs: with valid time-slots and no injected failures or losses, no
// collision may block a delivery. DFO (serial) must be strictly
// collision-free; window-listening schedules tolerate benign overhears of
// transmitters outside the listener's interference set.
func (v *verifier) checkCollisionFreedom() {
	const name = "collision-freedom"
	switch strings.ToUpper(v.rec.Header.Protocol) {
	case "CFF", "ICFF", "DFO", "MULTICAST":
	default:
		// Unscheduled protocols (e.g. PFLOOD) carry no collision-freedom
		// guarantee: colliding is their expected behavior.
		v.rep.skip(name, fmt.Sprintf("protocol %q is unscheduled; no collision-freedom guarantee", v.rec.Header.Protocol))
		return
	}
	if !v.clean() {
		why := "run has injected failures or losses"
		if v.rec.Dropped() > 0 {
			why = "ring truncation dropped events"
		}
		v.rep.skip(name, why)
		return
	}
	if strings.ToUpper(v.rec.Header.Protocol) == "DFO" {
		// DFO serializes the whole broadcast (one transmitter per round),
		// so a clean run must be strictly collision-free.
		for _, ev := range v.rec.Events {
			if ev.Kind == radio.EvCollision {
				v.rep.add(name, fmt.Errorf("flight: collision at node %d in round %d on a failure-free run", ev.Node, ev.Round), "")
				return
			}
		}
		v.rep.add(name, nil, "failure-free run, zero collisions")
		return
	}
	// CFF/ICFF/MULTICAST receivers listen across a whole phase window, and
	// slot uniqueness is guaranteed only within each receiver's
	// interference set. In dense deployments a listener can be in radio
	// range of transmitters outside that set which share a slot, so it
	// overhears their collision in a foreign slot round. The guarantee is
	// that such overhears are benign: the listener's designated slot stays
	// clean and it still receives the payload.
	delivered := make(map[graph.NodeID]bool)
	for _, ev := range v.rec.Events {
		if ev.Kind == radio.EvDeliver {
			delivered[ev.Node] = true
		}
	}
	collisions := 0
	for _, ev := range v.rec.Events {
		if ev.Kind != radio.EvCollision {
			continue
		}
		collisions++
		if !delivered[ev.Node] && ev.Node != v.rec.Header.Source {
			v.rep.add(name, fmt.Errorf("flight: node %d collided in round %d and never received on a failure-free run", ev.Node, ev.Round), "")
			return
		}
	}
	if collisions == 0 {
		v.rep.add(name, nil, "failure-free run, zero collisions")
		return
	}
	v.rep.add(name, nil, fmt.Sprintf("failure-free run, %d benign overhears, none blocked delivery", collisions))
}

// checkRoundBound re-checks Lemma 1 / Theorem 1 (and the DFO 4p-2 bound)
// from the recorded slots, depths and roles: the run must not outlast its
// protocol's schedule bound, preamble included.
func (v *verifier) checkRoundBound() {
	const name = "round-bound"
	if len(v.rec.Nodes) == 0 {
		v.rep.skip(name, "no topology recorded")
		return
	}
	src, ok := v.nodes[v.rec.Header.Source]
	if !ok {
		v.rep.skip(name, fmt.Sprintf("source %d not in recorded topology", v.rec.Header.Source))
		return
	}
	k := v.rec.Header.Channels
	if k < 1 {
		k = 1
	}
	pre := src.Depth
	lastRound := v.rec.MaxRound()
	maxB, maxL, maxU, hBT, h := 0, 0, 0, 0, 0
	members := false
	heads := 0
	for _, n := range v.rec.Nodes {
		if n.BSlot > maxB {
			maxB = n.BSlot
		}
		if n.LSlot > maxL {
			maxL = n.LSlot
		}
		if n.USlot > maxU {
			maxU = n.USlot
		}
		if n.Depth > h {
			h = n.Depth
		}
		switch n.Role {
		case RoleMember:
			members = true
		case RoleHead:
			heads++
			fallthrough
		case RoleGateway:
			if n.Depth > hBT {
				hBT = n.Depth
			}
		}
	}
	var bound int
	var formula string
	switch strings.ToUpper(v.rec.Header.Protocol) {
	case "ICFF", "MULTICAST":
		bound = pre + ceilDiv(maxB, k)*hBT
		if members {
			bound += ceilDiv(maxL, k)
		}
		formula = fmt.Sprintf("pre + ceil(delta/k)*h_BT + ceil(Delta/k) = %d + %d*%d + %d",
			pre, ceilDiv(maxB, k), hBT, bound-pre-ceilDiv(maxB, k)*hBT)
	case "CFF":
		bound = pre + ceilDiv(maxU, k)*h
		formula = fmt.Sprintf("pre + ceil(Delta_u/k)*h = %d + %d*%d", pre, ceilDiv(maxU, k), h)
	case "DFO":
		bound = 4*heads - 2
		if bound < 2 {
			bound = 2
		}
		formula = fmt.Sprintf("4p-2 with p=%d", heads)
	default:
		v.rep.skip(name, fmt.Sprintf("no bound known for protocol %q", v.rec.Header.Protocol))
		return
	}
	if lastRound > bound {
		v.rep.add(name, fmt.Errorf("flight: run lasted %d rounds, exceeding the %s bound %s = %d",
			lastRound, v.rec.Header.Protocol, formula, bound), "")
		return
	}
	v.rep.add(name, nil, fmt.Sprintf("%d rounds <= %s = %d", lastRound, formula, bound))
}

// checkFooter cross-checks the footer's engine aggregates against the
// event stream, and the recorded completion against the causal trace.
func (v *verifier) checkFooter() {
	const name = "footer"
	f := v.rec.Footer
	if f == nil {
		v.rep.add(name, fmt.Errorf("flight: recording has no footer (truncated before Close?)"), "")
		return
	}
	if v.rec.Dropped() > 0 {
		v.rep.skip(name, fmt.Sprintf("ring truncation dropped %d events", v.rec.Dropped()))
		return
	}
	counts := make(map[radio.EventKind]int)
	for _, ev := range v.rec.Events {
		counts[ev.Kind]++
	}
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"deliveries", f.Deliveries, counts[radio.EvDeliver]},
		{"collisions", f.Collisions, counts[radio.EvCollision]},
		{"transmissions", f.Transmissions, counts[radio.EvTransmit]},
		{"losses", f.Losses, counts[radio.EvLoss]},
	} {
		if c.got != c.want {
			v.rep.add(name, fmt.Errorf("flight: footer says %d %s, event stream has %d", c.got, c.what, c.want), "")
			return
		}
	}
	if f.Received > f.Audience {
		v.rep.add(name, fmt.Errorf("flight: footer received %d > audience %d", f.Received, f.Audience), "")
		return
	}
	if t := v.rec.mainTrace(); t != nil && f.Audience == len(v.rec.Nodes) && len(v.rec.Nodes) > 0 {
		holders := t.Holders()
		completion := 0
		for id := range holders {
			if rd, ok := t.DeliveredRound(id); ok && rd > completion {
				completion = rd
			}
		}
		if len(holders) != f.Received {
			v.rep.add(name, fmt.Errorf("flight: footer says %d of %d nodes received, causal trace reaches %d",
				f.Received, f.Audience, len(holders)), "")
			return
		}
		if completion != f.CompletionRound {
			v.rep.add(name, fmt.Errorf("flight: footer completion round %d, causal trace completes in %d",
				f.CompletionRound, completion), "")
			return
		}
	}
	v.rep.add(name, nil, fmt.Sprintf("aggregates match %d events (delivered %d/%d, completion r%d)",
		len(v.rec.Events), f.Received, f.Audience, f.CompletionRound))
}

// checkConstructionDeltas verifies that, on a churn-free recording, the
// construction trace accounts for every node: N-1 move-ins besides the
// root (Section 5's add-nodes-one-by-one construction).
func (v *verifier) checkConstructionDeltas() {
	const name = "construction-deltas"
	if len(v.rec.Deltas) == 0 {
		v.rep.skip(name, "no deltas recorded")
		return
	}
	onlyMoveIns := true
	movedIn := make(map[graph.NodeID]bool)
	for _, d := range v.rec.Deltas {
		switch d.Kind {
		case DeltaMoveIn:
			movedIn[d.Node] = true
		case DeltaNodeFail, DeltaLinkFail:
			// Injected failures do not restructure the CNet.
		default:
			onlyMoveIns = false
		}
	}
	if !onlyMoveIns {
		v.rep.skip(name, "churn present; construction set not comparable")
		return
	}
	var missing []graph.NodeID
	for id := range v.nodes {
		if id != v.root && !movedIn[id] {
			missing = append(missing, id)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	if len(missing) > 0 {
		v.rep.add(name, fmt.Errorf("flight: %d recorded nodes have no move-in delta (first: %d)", len(missing), missing[0]), "")
		return
	}
	v.rep.add(name, nil, fmt.Sprintf("%d move-ins cover all non-root nodes", len(movedIn)))
}
