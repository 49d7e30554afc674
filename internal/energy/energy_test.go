package energy

import (
	"math"
	"testing"
	"testing/quick"

	"dynsens/internal/graph"
)

func TestModelValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Model{TransmitCost: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative cost accepted")
	}
	inverted := Model{TransmitCost: 0.1, ListenCost: 0.1, SleepCost: 1}
	if err := inverted.Validate(); err == nil {
		t.Fatal("sleep costlier than activity accepted")
	}
}

func TestEpochCost(t *testing.T) {
	m := Model{TransmitCost: 2, ListenCost: 1, SleepCost: 0.5}
	// 3 tx + 4 listen + 3 sleep in a 10-round epoch.
	got := m.EpochCost(4, 3, 10)
	want := 3*2.0 + 4*1.0 + 3*0.5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", got, want)
	}
	// Activity exceeding the epoch clamps sleep at zero.
	got = m.EpochCost(8, 8, 10)
	want = 8*2.0 + 8*1.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("clamped cost = %v, want %v", got, want)
	}
}

func TestLifetimeExact(t *testing.T) {
	m := Model{TransmitCost: 1, ListenCost: 1, SleepCost: 0}
	listens := map[graph.NodeID]int{1: 3, 2: 1}
	transmits := map[graph.NodeID]int{1: 2}
	// Worst node is 1 with cost 5/epoch; budget 27 -> 5 epochs.
	epochs, bottleneck := Lifetime(m, 27, listens, transmits, 100, 1<<20)
	if epochs != 5 || bottleneck != 1 {
		t.Fatalf("lifetime = %d via %d", epochs, bottleneck)
	}
}

func TestLifetimeAllSleepCaps(t *testing.T) {
	m := Model{TransmitCost: 1, ListenCost: 1, SleepCost: 0}
	epochs, _ := Lifetime(m, 10, nil, nil, 100, 999)
	if epochs != 999 {
		t.Fatalf("all-sleep lifetime = %d", epochs)
	}
	epochs, _ = Lifetime(m, 10, nil, nil, 0, 999)
	if epochs != 999 {
		t.Fatalf("zero-epoch lifetime = %d", epochs)
	}
}

// Property: lifetime decreases (weakly) as activity increases, and the
// bottleneck is always the costliest node.
func TestLifetimeMonotone(t *testing.T) {
	f := func(l1, t1, extra uint8) bool {
		m := DefaultModel()
		a := map[graph.NodeID]int{1: int(l1 % 50)}
		b := map[graph.NodeID]int{1: int(t1 % 50)}
		e1, _ := Lifetime(m, 1000, a, b, 200, 1<<20)
		a2 := map[graph.NodeID]int{1: int(l1%50) + int(extra%10) + 1}
		e2, _ := Lifetime(m, 1000, a2, b, 200, 1<<20)
		return e2 <= e1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
