package timeslot

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
	"dynsens/internal/workload"
)

// fullScan is a second Assignment on the same CNet that marks every node
// dirty before each update, so each update's repair starts from a scan of
// the whole network instead of the marked receivers. The local repair
// must match it exactly after every step.
type fullScan struct{ *Assignment }

func (f fullScan) OnJoin(id graph.NodeID) error {
	f.markAll()
	return f.Assignment.OnJoin(id)
}

func (f fullScan) OnMoveOut(rec cnet.MoveOutRecord) error {
	f.markAll()
	return f.Assignment.OnMoveOut(rec)
}

// sameAsFullScan reports how a differs from its full-scan twin, slot for
// slot and in the charged maintenance cost, or nil.
func sameAsFullScan(a *Assignment, twin fullScan) error {
	for _, k := range []Kind{B, L, U} {
		if !maps.Equal(a.slot[k], twin.slot[k]) {
			return fmt.Errorf("%v table differs: incremental %v, full scan %v", k, a.slot[k], twin.slot[k])
		}
	}
	if a.Rounds() != twin.Rounds() || a.Recalcs() != twin.Recalcs() {
		return fmt.Errorf("cost differs: incremental %d rounds / %d recalcs, full scan %d / %d",
			a.Rounds(), a.Recalcs(), twin.Rounds(), twin.Recalcs())
	}
	return nil
}

// TestIncrementalRepairMatchesFullScan replays seeded churn traces (joins
// and leaves of a unit-disk network at the paper's density) through the
// dirty-set repair and through a full-scan twin, in both condition modes,
// and requires identical slot tables, Rounds and Recalcs after every
// event.
func TestIncrementalRepairMatchesFullScan(t *testing.T) {
	const events = 300
	for _, n := range []int{40, 120, 300} {
		for seed := int64(1); seed <= 12; seed++ {
			for _, cond := range []Condition{ConditionStrict, ConditionPaper} {
				t.Run(fmt.Sprintf("n=%d/seed=%d/cond=%d", n, seed, cond), func(t *testing.T) {
					t.Parallel()
					replayAgainstFullScan(t, n, seed, cond, events)
				})
			}
		}
	}
}

func replayAgainstFullScan(t *testing.T, n int, seed int64, cond Condition, events int) {
	side := int(math.Round(math.Sqrt(float64(n) / 5)))
	cfg := workload.PaperConfig(seed, side, n)
	base, trace, err := workload.ChurnTrace(cfg, events, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	udg := workload.NewUDGState(cfg.Region, cfg.Range)
	for i, p := range base.Pos {
		if _, err := udg.Join(graph.NodeID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	c, _, err := cnet.BuildFromGraph(base.Graph(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, twin := New(c, cond), fullScan{New(c, cond)}
	if err := sameAsFullScan(a, twin); err != nil {
		t.Fatalf("after construction: %v", err)
	}
	for i, ev := range trace {
		nbrs, err := udg.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == workload.Join {
			if _, _, err := c.MoveIn(ev.Node, nbrs); err != nil {
				t.Fatalf("event %d: join %d: %v", i, ev.Node, err)
			}
			if err := a.OnJoin(ev.Node); err != nil {
				t.Fatalf("event %d: slots after join %d: %v", i, ev.Node, err)
			}
			if err := twin.OnJoin(ev.Node); err != nil {
				t.Fatalf("event %d: full scan after join %d: %v", i, ev.Node, err)
			}
		} else {
			rec, _, err := c.MoveOut(ev.Node)
			if err != nil {
				t.Fatalf("event %d: leave %d: %v", i, ev.Node, err)
			}
			if err := a.OnMoveOut(rec); err != nil {
				t.Fatalf("event %d: slots after leave %d: %v", i, ev.Node, err)
			}
			if err := twin.OnMoveOut(rec); err != nil {
				t.Fatalf("event %d: full scan after leave %d: %v", i, ev.Node, err)
			}
		}
		if err := sameAsFullScan(a, twin); err != nil {
			t.Fatalf("event %d (%v %d): %v", i, ev.Kind, ev.Node, err)
		}
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
}
