// Package dist is the distributed actor runtime: it hosts the repository's
// unmodified radio.Program implementations as isolated message-passing
// nodes — goroutines behind in-memory pipes by default, separate OS
// processes (cmd/dnode) when asked — and drives them through the paper's
// round/slot structure with a coordinator that speaks the
// length-prefixed frame protocol of internal/netio/frame.
//
// The coordinator consumes the same transport-agnostic round core
// (internal/radio/rounds: loss-coin streams, single-listener resolution,
// failure schedule) and the same graph adjacency as the in-process kernel,
// and emits events into the same trace/obs/flight sinks. For a fixed seed
// and scenario, a distributed run's trace, recording and Result are
// byte-identical to the kernel's — equivalence is the proof obligation,
// exactly as RunReference is for the kernel. On top of that, a scripted
// nemesis injects what only a distributed runtime can make honest: crashes
// (a node that dies or stops answering its round barrier), temporary
// partitions that heal, and frame loss.
package dist

import (
	"fmt"
	"io"

	"dynsens/internal/graph"
	"dynsens/internal/netio/frame"
	"dynsens/internal/radio"
)

// ServeNode hosts prog as the actor for node id over rw: it introduces
// itself with a Hello (node ID plus the program's initial Done bit), then
// answers the coordinator's round barriers — Act with the program's action,
// Finish (applying the optional delivery) with the program's Done bit —
// until a Halt frame or EOF ends the run. The loop is the distributed twin
// of the kernel's shard phases and carries the same determinism
// obligations, statically enforced by dynlint: no event sinks, no global
// rand, nothing but the program's own node-local state.
//
//dynlint:shardsafe node hosts run concurrently; a host may touch only its frames and its own Program
func ServeNode(rw io.ReadWriter, id graph.NodeID, prog radio.Program) error {
	enc := frame.NewEncoder(rw)
	dec := frame.NewDecoder(rw)
	if err := enc.Encode(&frame.Frame{Kind: frame.KindHello, Node: id, Done: prog.Done()}); err != nil {
		return fmt.Errorf("dist: node %d: sending hello: %w", id, err)
	}
	var f frame.Frame
	for {
		if err := dec.Decode(&f); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("dist: node %d: %w", id, err)
		}
		switch f.Kind {
		case frame.KindAct:
			a := prog.Act(f.Round)
			if err := enc.Encode(&frame.Frame{Kind: frame.KindAction, Round: f.Round, Action: a}); err != nil {
				return fmt.Errorf("dist: node %d: sending action: %w", id, err)
			}
		case frame.KindFinish:
			if f.HasMsg {
				prog.Deliver(f.Round, f.Msg)
			}
			if err := enc.Encode(&frame.Frame{Kind: frame.KindStatus, Round: f.Round, Done: prog.Done()}); err != nil {
				return fmt.Errorf("dist: node %d: sending status: %w", id, err)
			}
		case frame.KindHalt:
			return nil
		default:
			return fmt.Errorf("dist: node %d: unexpected %v frame from coordinator", id, f.Kind)
		}
	}
}
