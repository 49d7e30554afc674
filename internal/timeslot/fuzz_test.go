package timeslot

import (
	"testing"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
)

// FuzzUpdateTimeSlot drives the incremental slot-update procedures
// (Algorithm 3's OnJoin, OnMoveOut) through arbitrary join/leave sequences
// decoded from fuzz bytes, in both condition modes, and asserts
// collision-freedom (the Time-Slot Conditions, via Verify) and the Lemma 3
// size bounds after every single step — the paper's claim is precisely
// that the conditions are an invariant of the update procedures, not just
// of bulk construction. A full-scan twin on the same CNet checks after
// every step that the local repair made exactly the recalculations a scan
// of the whole network would.
func FuzzUpdateTimeSlot(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(byte(1), []byte{0, 0, 0, 0x85, 1, 1, 0x90, 2})
	f.Add(byte(0), []byte{7, 3, 0xff, 5, 0x80, 9, 0xa0, 2, 2, 0xc0})
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		cond := ConditionStrict
		if mode%2 == 1 {
			cond = ConditionPaper
		}
		c := cnet.New(0, nil)
		a, twin := New(c, cond), fullScan{New(c, cond)}
		next := graph.NodeID(1)
		for _, op := range ops {
			if op < 0x80 || c.Size() <= 2 {
				// Join next to an anchor selected by op, plus a subset of
				// the anchor's neighbors so degrees keep growing.
				nodes := c.Tree().Nodes()
				anchor := nodes[int(op)%len(nodes)]
				nbrs := []graph.NodeID{anchor}
				for i, nb := range c.Graph().Neighbors(anchor) {
					if i%2 == int(op)%2 {
						nbrs = append(nbrs, nb)
					}
				}
				if _, _, err := c.MoveIn(next, nbrs); err != nil {
					t.Fatalf("join %d: %v", next, err)
				}
				if err := a.OnJoin(next); err != nil {
					t.Fatalf("slots after join %d: %v", next, err)
				}
				if err := twin.OnJoin(next); err != nil {
					t.Fatalf("full scan after join %d: %v", next, err)
				}
				next++
			} else {
				// Leave a safe (non-root, non-cut) node chosen from op.
				nodes := c.Tree().Nodes()
				removed := false
				for k := 0; k < len(nodes); k++ {
					cand := nodes[(int(op)+k)%len(nodes)]
					if cand == c.Root() {
						continue
					}
					res := c.Graph().Clone()
					res.RemoveNode(cand)
					if !res.Connected() {
						continue
					}
					rec, _, err := c.MoveOut(cand)
					if err != nil {
						t.Fatalf("leave %d: %v", cand, err)
					}
					if err := a.OnMoveOut(rec); err != nil {
						t.Fatalf("slots after leave %d: %v", cand, err)
					}
					if err := twin.OnMoveOut(rec); err != nil {
						t.Fatalf("full scan after leave %d: %v", cand, err)
					}
					removed = true
					break
				}
				if !removed {
					continue
				}
			}
			if err := sameAsFullScan(a, twin); err != nil {
				t.Fatalf("local repair after step: %v", err)
			}
			if err := a.Verify(); err != nil {
				t.Fatalf("collision-freedom after step: %v", err)
			}
			if err := a.CheckBounds(); err != nil {
				t.Fatalf("lemma 3 bounds after step: %v", err)
			}
		}
	})
}
