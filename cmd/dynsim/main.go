// Command dynsim runs one simulated scenario: it deploys a sensor network,
// builds the cluster structure, assigns time-slots, runs a broadcast or
// multicast, and prints structural statistics and measured protocol
// metrics. The flags describe a one-off scenario (see docs/scenarios.md
// for the flag-to-spec-key table); -scenario runs a .dsn file instead.
// Both go through the same scenario runner and honour the same output
// flags.
//
// Examples:
//
//	dynsim -n 300 -side 10 -protocol icff
//	dynsim -n 300 -protocol dfo -failfrac 0.1
//	dynsim -n 200 -protocol multicast -groupfrac 0.2 -channels 4
//	dynsim -n 200 -protocol gather
//	dynsim -n 300 -metrics metrics.prom -events trace.jsonl
//	dynsim -n 500 -pprof localhost:6060
//	dynsim -scenario testdata/scenarios/positive/sparse-rgg-icff.dsn
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"time"

	"dynsens/internal/broadcast"
	"dynsens/internal/dist"
	"dynsens/internal/graph"
	"dynsens/internal/obs"
	obsperf "dynsens/internal/obs/perf"
	"dynsens/internal/radio"
	"dynsens/internal/scenario"
)

func main() {
	var cfg runConfig
	fs, scenarioPath := flags(&cfg)
	// ExitOnError: Parse cannot return a non-nil error here.
	_ = fs.Parse(os.Args[1:])

	switch cfg.Runtime {
	case "", broadcast.RuntimeKernel, broadcast.RuntimeDist:
	default:
		fmt.Fprintf(os.Stderr, "dynsim: unknown -runtime %q (kernel|dist)\n", cfg.Runtime)
		os.Exit(1)
	}
	if cfg.DNode != "" {
		cfg.Runtime = broadcast.RuntimeDist
		if *scenarioPath == "" {
			fmt.Fprintln(os.Stderr, "dynsim: -dnode needs -scenario (the children reload the scenario file)")
			os.Exit(1)
		}
	}

	if *scenarioPath != "" {
		os.Exit(runScenario(*scenarioPath, cfg))
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dynsim: %v\n", err)
		os.Exit(1)
	}
}

// flags binds dynsim's command line onto cfg; the returned string is the
// -scenario path.
func flags(cfg *runConfig) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("dynsim", flag.ExitOnError)
	fs.IntVar(&cfg.N, "n", 200, "number of nodes")
	fs.IntVar(&cfg.Side, "side", 10, "region side in 100 m units")
	fs.Int64Var(&cfg.Seed, "seed", 1, "deployment seed")
	fs.StringVar(&cfg.Protocol, "protocol", "icff", "icff|cff|dfo|multicast|gather")
	fs.IntVar(&cfg.Channels, "channels", 1, "radio channels k")
	fs.IntVar(&cfg.Workers, "workers", 0, "radio engine shard workers (0 = auto; results are identical at any value)")
	fs.IntVar(&cfg.Source, "source", 0, "broadcast source node ID")
	fs.Float64Var(&cfg.FailFrac, "failfrac", 0, "fraction of nodes failing mid-broadcast")
	fs.Float64Var(&cfg.GroupFrac, "groupfrac", 0.2, "multicast group membership probability")
	fs.BoolVar(&cfg.Verbose, "v", false, "print per-event trace")
	fs.StringVar(&cfg.MetricsPath, "metrics", "", "write a metrics snapshot here at exit (- for stdout, .json for JSON, else Prometheus text)")
	fs.StringVar(&cfg.EventsPath, "events", "", "write radio events as JSONL here")
	fs.StringVar(&cfg.PprofAddr, "pprof", "", "serve net/http/pprof and /metrics on this address during the run")
	fs.StringVar(&cfg.RecordPath, "record", "", "write a binary flight recording here (replay with: nettool replay)")
	fs.IntVar(&cfg.RecordRing, "record-ring", 0, "bound the recording to the last N radio events (0 = keep all)")
	fs.BoolVar(&cfg.Perf, "perf", false, "collect kernel perf introspection and print a per-phase/per-shard summary (results are byte-identical either way)")
	fs.StringVar(&cfg.Runtime, "runtime", "", "execution runtime: kernel (in-process, default) or dist (message-passing actor nodes; byte-identical results)")
	fs.StringVar(&cfg.DNode, "dnode", "", "path to a dnode binary: run each node as its own OS process (implies -runtime dist; scenario mode only)")
	scenarioPath := fs.String("scenario", "", "run a declarative .dsn scenario file instead (exit 1 if an assertion fails; see docs/scenarios.md)")
	return fs, scenarioPath
}

// runScenario executes a .dsn scenario file. The file's spec overrides
// dynsim's topology/protocol flags; the runtime and output flags still
// apply. It returns the process exit code.
func runScenario(path string, cfg runConfig) int {
	s, err := scenario.Load(path)
	if err == nil {
		err = execute(s, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynsim: %v\n", err)
		return 1
	}
	return 0
}

// runConfig carries every knob of one scenario; tests build it directly.
type runConfig struct {
	N, Side  int
	Seed     int64
	Protocol string
	Channels int
	// Workers is the radio engine's shard-worker count; 0 lets the engine
	// choose. Purely a wall-clock knob: the simulation is byte-identical
	// at any value.
	Workers   int
	Source    int
	FailFrac  float64
	GroupFrac float64
	Verbose   bool
	// MetricsPath, when non-empty, receives a metrics snapshot at exit:
	// "-" writes Prometheus text to stdout, a ".json" suffix selects JSON,
	// anything else Prometheus text.
	MetricsPath string
	// EventsPath, when non-empty, receives the radio event stream as JSONL.
	EventsPath string
	// PprofAddr, when non-empty, serves net/http/pprof plus a /metrics
	// endpoint on that address for the duration of the run.
	PprofAddr string
	// RecordPath, when non-empty, receives a binary flight recording of
	// the run (topology, churn deltas, every radio event, phase markers);
	// RecordRing > 0 bounds it to the last N radio events.
	RecordPath string
	RecordRing int
	// Perf enables kernel performance introspection: per-phase wall
	// times, shard busy/imbalance, and (with -metrics/-pprof) the
	// dynsens_kernel_* series plus a background runtime sampler. Strictly
	// read-only — simulation output is byte-identical either way.
	Perf bool
	// Runtime selects the execution runtime: "" or "kernel" runs the
	// in-process radio kernel, "dist" hosts each Program as a
	// message-passing actor node behind the round coordinator. Results are
	// byte-identical.
	Runtime string
	// DNode, when non-empty, is the path to a dnode binary: the dist
	// runtime launches one OS process per node (scenario mode only, since
	// the children rebuild their Programs from the scenario file).
	DNode string
}

// wantObs reports whether the scenario needs a metrics registry at all.
func (c runConfig) wantObs() bool {
	return c.MetricsPath != "" || c.PprofAddr != ""
}

// pprofMux builds the profiling mux by hand: the binary deliberately avoids
// http.DefaultServeMux so -pprof exposes exactly pprof and /metrics.
func pprofMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := reg.Snapshot().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// writeMetrics dumps the final snapshot per the -metrics convention.
func writeMetrics(reg *obs.Registry, path string) error {
	snap := reg.Snapshot()
	if path == "-" {
		return snap.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(path) > 5 && path[len(path)-5:] == ".json" {
		err = snap.WriteJSON(f)
	} else {
		err = snap.WritePrometheus(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// flagOf names the flag behind each spec key or script verb that flag
// mode sets and Spec validation can reject.
var flagOf = map[string]string{
	"channels":            "-channels",
	"group-frac":          "-groupfrac",
	scenario.VerbFailFrac: "-failfrac",
}

// scenarioOf maps the flags onto a one-off scenario: the spec a .dsn file
// with the same settings would hold, and -failfrac as its script.
func scenarioOf(cfg runConfig) *scenario.Scenario {
	s := &scenario.Scenario{Spec: scenario.Spec{
		Name: "dynsim", N: cfg.N, Side: cfg.Side, Seed: cfg.Seed,
		Protocol: cfg.Protocol, Channels: &cfg.Channels,
		Source: graph.NodeID(cfg.Source), GroupFrac: &cfg.GroupFrac, Joiner: -1,
	}}
	if cfg.FailFrac != 0 {
		s.Script = []scenario.Step{{Verb: scenario.VerbFailFrac, Frac: cfg.FailFrac}}
	}
	return s
}

// run executes the scenario the flags describe. Invalid settings fail
// before any output file is created, naming the flag.
func run(cfg runConfig) error {
	s := scenarioOf(cfg)
	if err := s.Validate(); err != nil {
		var ke *scenario.KeyError
		if errors.As(err, &ke) && flagOf[ke.Key] != "" {
			return fmt.Errorf("%s %v: %s", flagOf[ke.Key], ke.Value, ke.Reason)
		}
		return err
	}
	return execute(s, cfg)
}

// errFailed reports a run whose checks did not all hold; the report on
// stdout says which.
var errFailed = errors.New("scenario checks failed")

// execute runs s through scenario.Run with the sinks cfg asks for, prints
// the structure summary and the report, and writes the output files.
func execute(s *scenario.Scenario, cfg runConfig) error {
	// Self-verify (offline verifier plus replay agreement) when there is a
	// recording to keep or an assertion to check; a bare flag-mode run
	// then skips the in-memory recording.
	opts := scenario.RunOptions{
		Workers: cfg.Workers, Runtime: cfg.Runtime,
		Record: cfg.RecordPath != "", RecordRing: cfg.RecordRing,
		Verify: scenario.FlightCapable(s.Spec.Protocol) && (cfg.RecordPath != "" || len(s.Asserts) > 0),
	}
	if cfg.DNode != "" {
		opts.Fleet = &dist.ProcFleet{Command: func(id graph.NodeID) *exec.Cmd {
			return exec.Command(cfg.DNode, "-scenario", s.Path, "-node", fmt.Sprint(id))
		}}
	}
	if cfg.wantObs() {
		opts.Obs = obs.NewRegistry()
	}
	if cfg.PprofAddr != "" {
		srv := &http.Server{Addr: cfg.PprofAddr, Handler: pprofMux(opts.Obs)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "dynsim: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof+metrics listening on %s\n", cfg.PprofAddr)
	}
	var sampler *obsperf.Sampler
	if cfg.Perf {
		opts.Perf = radio.NewPerf()
		if opts.Obs != nil {
			sampler = obsperf.NewSampler(opts.Obs)
			sampler.Start(250 * time.Millisecond)
		}
	}
	if cfg.Verbose {
		opts.TraceBatch = printEvents
	}
	if cfg.EventsPath != "" {
		f, err := os.Create(cfg.EventsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sink := obs.NewEventSink(f)
		opts.TraceBatch = obs.ChainBatchHooks(opts.TraceBatch, sink.BatchHook())
		defer func() {
			if serr := sink.Err(); serr != nil {
				fmt.Fprintf(os.Stderr, "dynsim: event sink: %v\n", serr)
			} else {
				fmt.Printf("wrote %d events to %s\n", sink.Events(), cfg.EventsPath)
			}
		}()
	}

	res, err := scenario.Run(s, opts)
	if sampler != nil {
		sampler.Stop()
	}
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Printf("network: %d nodes on %dx%d units (range 50 m)\n", st.Nodes, s.Spec.Side, s.Spec.Side)
	fmt.Printf("structure: clusters=%d gateways=%d members=%d height=%d\n",
		st.Clusters, st.Gateways, st.Members, st.Height)
	fmt.Printf("backbone: size=%d height=%d\n", st.BackboneSize, st.BackboneHeight)
	fmt.Printf("degrees/slots: D=%d d=%d Delta=%d delta=%d (Lemma 3 bounds %d / %d)\n",
		st.DegreeG, st.DegreeBT, st.Delta, st.SmallDelta, st.BoundL, st.BoundB)
	if err := res.Write(os.Stdout); err != nil {
		return err
	}
	if cfg.RecordPath != "" {
		if err := os.WriteFile(cfg.RecordPath, res.Recording, 0o644); err != nil {
			return err
		}
		fmt.Printf("recorded %d bytes to %s\n", len(res.Recording), cfg.RecordPath)
	}
	if opts.Perf != nil {
		snap := opts.Perf.Snapshot()
		if opts.Obs != nil {
			obsperf.Publish(opts.Obs, snap)
		}
		if err := obsperf.WriteSummary(os.Stdout, snap); err != nil {
			return err
		}
	}
	if opts.Obs != nil && cfg.MetricsPath != "" {
		if err := writeMetrics(opts.Obs, cfg.MetricsPath); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		if cfg.MetricsPath != "-" {
			fmt.Printf("wrote metrics snapshot to %s\n", cfg.MetricsPath)
		}
	}
	if !res.Passed() {
		return errFailed
	}
	return nil
}

// printEvents is the -v trace: one line per radio event.
func printEvents(evs []radio.Event) {
	for _, ev := range evs {
		switch ev.Kind {
		case radio.EvTransmit:
			fmt.Printf("  r%-4d tx   node %d ch %d\n", ev.Round, ev.Node, ev.Channel)
		case radio.EvDeliver:
			fmt.Printf("  r%-4d rx   node %d <- %d ch %d\n", ev.Round, ev.Node, ev.Peer, ev.Channel)
		case radio.EvCollision:
			fmt.Printf("  r%-4d coll node %d ch %d\n", ev.Round, ev.Node, ev.Channel)
		case radio.EvNodeFail:
			fmt.Printf("  r%-4d DIED node %d\n", ev.Round, ev.Node)
		}
	}
}
