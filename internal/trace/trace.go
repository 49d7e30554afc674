// Package trace renders round-by-round protocol timelines from radio-engine
// events — the debugging view of what a broadcast actually did on the air:
// who transmitted on which channel, who received from whom, where
// collisions happened, and which nodes died. Events reach it through a
// TraceBatch hook (or a decoded flight recording); the stream, Seq numbers
// included, is byte-identical at any radio.Engine.SetWorkers value.
package trace

import (
	"fmt"
	"io"
	"sort"

	"dynsens/internal/radio"
)

// KindName returns a short label for an event kind. It is the same label
// radio.EventKind.String produces; the alias predates that method.
func KindName(k radio.EventKind) string { return k.String() }

// RenderEvents writes the per-round timeline for an event slice (the
// flight replayer's -timeline view). Rounds with no events are skipped;
// dropped > 0 appends a truncation footer.
func RenderEvents(w io.Writer, events []radio.Event, dropped int) error {
	byRound := make(map[int][]radio.Event)
	for _, ev := range events {
		byRound[ev.Round] = append(byRound[ev.Round], ev)
	}
	rounds := make([]int, 0, len(byRound))
	for round := range byRound {
		rounds = append(rounds, round)
	}
	sort.Ints(rounds)
	for _, round := range rounds {
		if _, err := fmt.Fprintf(w, "round %d:\n", round); err != nil {
			return err
		}
		evs := byRound[round]
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Kind != evs[j].Kind {
				return evs[i].Kind < evs[j].Kind
			}
			return evs[i].Node < evs[j].Node
		})
		for _, ev := range evs {
			var line string
			switch ev.Kind {
			case radio.EvTransmit:
				line = fmt.Sprintf("  tx    node %-4d ch %d slot %d", ev.Node, ev.Channel, ev.Msg.Slot)
			case radio.EvDeliver:
				line = fmt.Sprintf("  rx    node %-4d <- %-4d ch %d", ev.Node, ev.Peer, ev.Channel)
			case radio.EvCollision:
				line = fmt.Sprintf("  COLL  node %-4d ch %d", ev.Node, ev.Channel)
			case radio.EvNodeFail:
				line = fmt.Sprintf("  DEAD  node %-4d", ev.Node)
			case radio.EvLinkFail:
				line = fmt.Sprintf("  CUT   link %d-%d", ev.Node, ev.Peer)
			case radio.EvLoss:
				line = fmt.Sprintf("  LOST  node %-4d <- %-4d ch %d", ev.Node, ev.Peer, ev.Channel)
			default:
				line = fmt.Sprintf("  %s node %d", KindName(ev.Kind), ev.Node)
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d events dropped beyond limit)\n", dropped); err != nil {
			return err
		}
	}
	return nil
}
