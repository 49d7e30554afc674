// Command dnode is one actor node of the distributed runtime: it loads
// the same .dsn scenario file as the coordinator, deterministically
// rebuilds the identical deployment and broadcast plan, picks out its
// assigned node's Program, and serves it over the frame protocol on
// stdin/stdout (the shape dist.ProcFleet expects, as wired by
// `dynsim -runtime dist -dnode`).
//
// Example:
//
//	dnode -scenario run.dsn -node 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dynsens/internal/dist"
	"dynsens/internal/graph"
	"dynsens/internal/scenario"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "the .dsn scenario file the coordinator is running (required)")
		node         = flag.Int("node", -1, "node ID to serve (required)")
	)
	flag.Parse()
	if err := run(*scenarioPath, *node); err != nil {
		fmt.Fprintf(os.Stderr, "dnode: %v\n", err)
		os.Exit(1)
	}
}

func run(scenarioPath string, node int) error {
	if scenarioPath == "" || node < 0 {
		return fmt.Errorf("-scenario and -node are required")
	}
	s, err := scenario.Load(scenarioPath)
	if err != nil {
		return err
	}
	plan, _, err := scenario.BuildPlan(s)
	if err != nil {
		return err
	}
	id := graph.NodeID(node)
	prog := plan.Programs[id]
	if prog == nil {
		return fmt.Errorf("scenario %s has no program for node %d", s.Name(), id)
	}
	// Stdio transport: the coordinator's ProcFleet owns both pipe ends and
	// the process lifecycle; the serve loop exits on stdin EOF or Halt.
	return dist.ServeNode(struct {
		io.Reader
		io.Writer
	}{os.Stdin, os.Stdout}, id, prog)
}
