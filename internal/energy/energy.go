// Package energy models per-node batteries over the paper's awake-round
// energy metric. The paper's claim is qualitative — CFF is "energy saving"
// because each node is awake only O(Delta) rounds per broadcast instead of
// the whole depth-first tour — and this package makes it quantitative: it
// prices listen/transmit/sleep rounds, drains batteries across repeated
// broadcasts, and computes the classic WSN lifetime metric (number of
// dissemination epochs until the first node dies).
package energy

import (
	"fmt"
	"math"

	"dynsens/internal/graph"
)

// Model prices one round of each activity in abstract energy units.
// Defaults follow the usual sensor-radio ordering: transmitting is the most
// expensive, idle listening costs nearly as much, sleeping is orders of
// magnitude cheaper.
type Model struct {
	TransmitCost float64
	ListenCost   float64
	SleepCost    float64
}

// DefaultModel mirrors typical low-power radio ratios (tx : rx : sleep
// roughly 1 : 0.8 : 0.001).
func DefaultModel() Model {
	return Model{TransmitCost: 1.0, ListenCost: 0.8, SleepCost: 0.001}
}

// Validate rejects negative or inverted cost orderings.
func (m Model) Validate() error {
	if m.TransmitCost < 0 || m.ListenCost < 0 || m.SleepCost < 0 {
		return fmt.Errorf("energy: negative cost in %+v", m)
	}
	if m.SleepCost > m.ListenCost || m.SleepCost > m.TransmitCost {
		return fmt.Errorf("energy: sleep costlier than activity in %+v", m)
	}
	return nil
}

// EpochCost returns the energy one node spends in a dissemination epoch of
// the given total length, with the given listen and transmit round counts.
func (m Model) EpochCost(listens, transmits, epochRounds int) float64 {
	sleeps := epochRounds - listens - transmits
	if sleeps < 0 {
		sleeps = 0
	}
	return float64(transmits)*m.TransmitCost +
		float64(listens)*m.ListenCost +
		float64(sleeps)*m.SleepCost
}

// Lifetime computes how many identical epochs the network survives before
// the first node depletes, given the per-epoch activity of each node. It
// is exact (no simulation loop needed because epochs are identical):
// floor(budget / maxPerEpochCost). Returns math.MaxInt-safe large values
// capped at cap for all-sleep epochs.
func Lifetime(model Model, budget float64, listens, transmits map[graph.NodeID]int, epochRounds int, cap int) (epochs int, bottleneck graph.NodeID) {
	if epochRounds <= 0 {
		return cap, 0
	}
	worst := 0.0
	first := true
	ids := make([]graph.NodeID, 0, len(listens)+len(transmits))
	seen := make(map[graph.NodeID]bool)
	for id := range listens {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for id := range transmits {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sortNodeIDs(ids)
	for _, id := range ids {
		c := model.EpochCost(listens[id], transmits[id], epochRounds)
		if first || c > worst {
			worst, bottleneck = c, id
			first = false
		}
	}
	if worst <= 0 {
		return cap, bottleneck
	}
	e := int(math.Floor(budget / worst))
	if e > cap {
		return cap, bottleneck
	}
	return e, bottleneck
}

func sortNodeIDs(ids []graph.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
