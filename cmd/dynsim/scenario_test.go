package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunScenarioExitCodes drives dynsim's -scenario path directly: a
// passing file exits 0, a violated assertion exits 1, and -record still
// writes the recording.
func TestRunScenarioExitCodes(t *testing.T) {
	dir := t.TempDir()
	pass := filepath.Join(dir, "pass.dsn")
	if err := os.WriteFile(pass, []byte(`-- spec --
name = dynsim-pass
n = 30
side = 8
seed = 1
-- assert --
completed
rounds <= theorem1
`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := filepath.Join(dir, "run.dsfr")
	if code := runScenario(pass, runConfig{RecordPath: rec}); code != 0 {
		t.Fatalf("passing scenario exited %d", code)
	}
	if fi, err := os.Stat(rec); err != nil || fi.Size() == 0 {
		t.Fatalf("recording not written: %v", err)
	}

	fail := filepath.Join(dir, "fail.dsn")
	if err := os.WriteFile(fail, []byte(`-- spec --
name = dynsim-fail
n = 30
side = 8
seed = 1
-- assert --
rounds <= 1
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runScenario(fail, runConfig{}); code != 1 {
		t.Fatalf("failing scenario exited %d, want 1", code)
	}
	if code := runScenario(filepath.Join(dir, "missing.dsn"), runConfig{}); code != 1 {
		t.Fatalf("missing file exited %d, want 1", code)
	}
}

// TestScenarioModeWritesSinks checks that -scenario honours the output
// flags flag mode has: the -events stream and the -metrics snapshot.
func TestScenarioModeWritesSinks(t *testing.T) {
	dir := t.TempDir()
	c := runConfig{
		EventsPath:  filepath.Join(dir, "e.jsonl"),
		MetricsPath: filepath.Join(dir, "m.json"),
	}
	if code := runScenario(filepath.Join("..", "..", "testdata", "scenarios", "positive", "sparse-rgg-icff.dsn"), c); code != 0 {
		t.Fatalf("scenario exited %d", code)
	}
	ev, err := os.ReadFile(c.EventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ev, []byte(`{"eseq":`)) {
		t.Fatalf("-events file does not start with an event line: %.40q", ev)
	}
	m, err := os.ReadFile(c.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(m, []byte("dynsens_broadcast_runs_total")) {
		t.Fatalf("-metrics snapshot lacks the broadcast series: %.80q", m)
	}
}
