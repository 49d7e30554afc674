package trace

import (
	"strings"
	"testing"

	"dynsens/internal/broadcast"
	"dynsens/internal/core"
	"dynsens/internal/radio"
	"dynsens/internal/workload"
)

// TestRecorderCollectsBroadcast records a live ICFF run with a
// slice-appending TraceBatch hook and renders it: every transmission the
// metrics count appears as an event, within the run's rounds.
func TestRecorderCollectsBroadcast(t *testing.T) {
	d, err := workload.IncrementalConnected(workload.PaperConfig(1, 8, 50))
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.Build(d.Graph(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var events []radio.Event
	m, err := net.Broadcast(net.Root(), broadcast.Options{
		TraceBatch: func(evs []radio.Event) { events = append(events, evs...) },
	})
	if err != nil || !m.Completed {
		t.Fatalf("broadcast: %v %s", err, m)
	}
	tx, rx, last := 0, 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case radio.EvTransmit:
			tx++
		case radio.EvDeliver:
			rx++
		}
		last = max(last, ev.Round)
	}
	if tx != m.Transmissions {
		t.Fatalf("tx events %d != metric %d", tx, m.Transmissions)
	}
	if rx == 0 {
		t.Fatal("no delivery events recorded")
	}
	if last == 0 || last > m.Rounds {
		t.Fatalf("last round %d vs %d", last, m.Rounds)
	}
	var b strings.Builder
	if err := RenderEvents(&b, events, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "round 1:") || !strings.Contains(out, "tx") {
		t.Fatalf("render malformed:\n%s", out[:min(400, len(out))])
	}
}

func TestRenderAllKinds(t *testing.T) {
	var b strings.Builder
	if err := RenderEvents(&b, []radio.Event{
		{Round: 1, Kind: radio.EvTransmit, Node: 1},
		{Round: 1, Kind: radio.EvDeliver, Node: 2, Peer: 1},
		{Round: 2, Kind: radio.EvCollision, Node: 3},
		{Round: 2, Kind: radio.EvNodeFail, Node: 4},
		{Round: 3, Kind: radio.EvLinkFail, Node: 5, Peer: 6},
	}, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"tx", "rx", "COLL", "DEAD", "CUT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestKindName(t *testing.T) {
	if KindName(radio.EvTransmit) != "tx" || KindName(radio.EvLinkFail) != "link-fail" {
		t.Fatal("kind names wrong")
	}
	if KindName(radio.EventKind(99)) == "" {
		t.Fatal("unknown kind should format")
	}
}
