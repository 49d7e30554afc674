package scenario

import (
	"bytes"
	"testing"
)

// FuzzScenarioParse asserts the parser's two safety contracts on arbitrary
// input: it never panics, and accepted input reaches a formatting fixpoint —
// Format(Parse(x)) parses back to something that formats identically
// (canonical form is stable, so fmt/update tooling cannot oscillate).
func FuzzScenarioParse(f *testing.F) {
	f.Add([]byte("-- spec --\nn = 40\nside = 8\n"))
	f.Add([]byte("-- spec --\nn = 10\nside = 8\nprotocol = pflood\nforward = 0.5\n-- assert --\ncompleted\nrounds <= theorem1\n"))
	f.Add([]byte("comment\n-- spec --\nn = 1\nside = 1\n-- script --\nchurn 3 0.5\n-- metrics --\nrounds = 1\n"))
	f.Add([]byte("-- spec --\nn = 5\nside = 8\nseed = -3\nloss = 0.25\n-- script --\nfail 2 4\ncut 1 3 2\nfailfrac 0.1\n"))
	f.Add([]byte("-- spec --\nname = x\nn = 2\nside = 2\njoiner = 1\nprotocol = discovery\n"))
	f.Add([]byte("-- spec --\nn = 3\nside = 2\nchannels = 1\ngroup-frac = 0\n"))
	f.Add([]byte("-- --")) // regression: marker prefix/suffix overlap panicked

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		canon := s.Format()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon)
		}
		canon2 := s2.Format()
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("format is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", canon, canon2)
		}
	})
}
