package cnet_test

import (
	"math"
	"runtime"
	"testing"

	"dynsens/internal/cnet"
	"dynsens/internal/workload"
)

// TestConstructionAllocScalesLinearly guards CNet construction against a
// quadratic regression without reading a clock, so a noisy host cannot
// flake it: it compares the bytes BuildFromGraph allocates on seeded
// paper-density networks of 1000 and 8000 nodes. Linear construction
// allocates about 14x as much for 8x the nodes (map growth accounts for
// the rest); a build that spends O(n) per move-in, such as recomputing
// every depth to read the height, allocates about 55x.
func TestConstructionAllocScalesLinearly(t *testing.T) {
	const maxRatio = 20
	small, large := buildAlloc(t, 1000), buildAlloc(t, 8000)
	if r := float64(large) / float64(small); r > maxRatio {
		t.Fatalf("BuildFromGraph allocated %d B at n=1000 and %d B at n=8000: ratio %.1f > %d, construction is no longer linear",
			small, large, r, maxRatio)
	}
}

// buildAlloc returns the bytes BuildFromGraph allocates on a seeded
// deployment of n nodes at the paper's density (side 100·√(n/5) m).
func buildAlloc(t *testing.T, n int) uint64 {
	t.Helper()
	side := int(math.Round(math.Sqrt(float64(n) / 5)))
	d, err := workload.IncrementalConnected(workload.PaperConfig(1, side, n))
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, _, err := cnet.BuildFromGraph(g, 0, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != n {
		t.Fatalf("built %d of %d nodes", c.Size(), n)
	}
	return after.TotalAlloc - before.TotalAlloc
}
