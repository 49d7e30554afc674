package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynsens/internal/flight"
)

// TestFilesMatchDigests reruns every command of testdata/digests.txt and
// compares the SHA-256 of the file it names: recordings, event streams and
// metrics snapshots stay byte-identical however the pipeline behind the
// flags is arranged.
func TestFilesMatchDigests(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		fields := strings.Fields(line)
		want, name, args := fields[0], fields[1], fields[2:]
		dir := t.TempDir()
		for i := range args {
			args[i] = strings.ReplaceAll(args[i], "$DIR", dir)
		}
		var cfg runConfig
		fs, _ := flags(&cfg)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := run(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s (%s): sha256 %s, want %s", name, strings.Join(fields[2:], " "), got, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("no digest lines")
	}
}

// TestGroupFracZeroIsRootOnly pins -groupfrac 0: no random members, so the
// multicast group is the root alone.
func TestGroupFracZeroIsRootOnly(t *testing.T) {
	c := cfg("multicast")
	c.GroupFrac = 0
	c.RecordPath = filepath.Join(t.TempDir(), "m.dsfr")
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.RecordPath)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := flight.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Footer == nil || rec.Footer.Audience != 1 {
		t.Fatalf("footer %+v, want a group of 1 member", rec.Footer)
	}
}
