package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of the repository's BENCHMARK.json the tests check.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at tiny scale and parses the result line.
func runTiny(t *testing.T, workload, trace, digests string) (int, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{
		"--workload", workload, "--seed", "1", "--seconds", "0.05", "--trace", trace, "--scale", "tiny",
		"--digests", digests, "--spans", filepath.Join(t.TempDir(), "spans.jsonl"),
	}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s --trace %s: last line %q: %v (stderr: %s)", workload, trace, lines[len(lines)-1], err, errOut.String())
	}
	if code != 0 {
		t.Logf("%s --trace %s: stderr: %s", workload, trace, errOut.String())
	}
	return code, res
}

// TestEveryMetricPrinted runs every workload of BENCHMARK.json untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": s.EndToEnd, "1": s.PerLayer} {
			code, res := runTiny(t, w.Name, trace, "digests.json")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %s: exit %d, correct %v, %d of %d failed", w.Name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s printed as %+v (present %v), want unit %q", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestWrongDigestFails checks that a run whose outputs differ from the
// committed digest fails.
func TestWrongDigestFails(t *testing.T) {
	raw, err := os.ReadFile("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed map[string]map[string]string
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		committed["tiny"][w.name] = strings.Repeat("0", 24)
	}
	wrong := filepath.Join(t.TempDir(), "digests.json")
	raw, _ = json.Marshal(committed)
	if err := os.WriteFile(wrong, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if code, res := runTiny(t, w.name, "0", wrong); code != 1 || res.Correct {
			t.Errorf("%s with a wrong digest: exit %d, correct %v; want exit 1, correct false", w.name, code, res.Correct)
		}
	}
}
