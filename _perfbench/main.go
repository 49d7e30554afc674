// Command perfbench is the repository benchmark. It runs one named
// workload through the public functions of the repo's layers, closed-loop
// with one caller, for a given number of seconds, checks every output,
// and prints one JSON object as the last line of standard output: the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a traced
// run. It exits 1 when an output check fails and 2 when the run cannot
// start. See README.md for the workloads and metrics.
//
//	go run . --workload churn-steady --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// sizes are the input sizes of the three workloads. churn-steady and
// broadcast-mix spread a run over several networks, so a run measures
// many inputs rather than one; fleet and fleetNets size the networks of
// broadcast-mix's broadcasts on the distributed runtime.
type sizes struct {
	build                         int
	churn, churnEvents, churnNets int
	mix, mixNets                  int
	fleet, fleetNets              int
}

// scales maps --scale to input sizes: full is the benchmark, tiny a smoke
// pass for the benchmark's own tests.
var scales = map[string]sizes{
	"full": {build: 2000, churn: 300, churnEvents: 400, churnNets: 16, mix: 2000, mixNets: 8, fleet: 500, fleetNets: 4},
	"tiny": {build: 200, churn: 60, churnEvents: 80, churnNets: 2, mix: 120, mixNets: 2, fleet: 40, fleetNets: 1},
}

// bench is one workload's state from set-up to the end of a run.
type bench interface {
	// op runs operation i. It returns how much of its time went to work
	// outside the operation proper (churn's periodic broadcast), which
	// counts toward wall time but not toward the op's latency.
	op(i int) (extra time.Duration, err error)
	// after checks op i's outputs and folds them into d; it is not timed.
	after(i int, d *digest) error
	// finish runs the timed end of the run.
	finish(d *digest) error
	// counts adds the traced run's per-layer counts, averaged over ops.
	counts(m map[string]float64, ops int)
}

type workloadDef struct {
	name  string
	setup func(seed int64, sz sizes, t *tracer) (bench, error)
	// tail is the quantile reported as op_ms_tail: the highest that
	// stayed steady between seeds (README.md).
	tail float64
	// prefixOps is how many ops every run makes at least, and how many
	// the committed digest covers.
	prefixOps int
	// procs is GOMAXPROCS for the run, 0 for Go's default. The serial
	// workloads run on one P. With two, the collector's background
	// worker shares the second CPU with whatever else runs there: a
	// memory-copying process on it cut churn-steady's ops_per_s by 14%
	// and raised its p90 by 36%, and left both flat on one P.
	procs int
}

var workloads = []workloadDef{
	{name: "build-scale", setup: setupBuild, tail: 0.75, prefixOps: 5, procs: 1},
	{name: "churn-steady", setup: setupChurn, tail: 0.9, prefixOps: 200, procs: 1},
	{name: "broadcast-mix", setup: setupMix, tail: 0.95, prefixOps: 20},
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 3

// defaultSeed is the seed whose digests are committed in digests.json.
const defaultSeed = 1

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_ms_p50", "ms"}, {"op_ms_tail", "ms"}, {"heap_live_mb", "MB"},
}

// perLayer lists the traced run's metrics. Span metrics are derived from
// span names: <span>_ms is the median per-op time in that span, _ms_p99
// its 99th percentile, _ms.alloc_mb the median bytes allocated in it and
// _ms.slope log2 of the time ratio between n and n/2 (build-scale). A
// layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"workload.deploy_ms", "ms"}, {"geom.udg_ms", "ms"}, {"cnet.build_ms", "ms"}, {"timeslot.assign_ms", "ms"},
	{"core.verify_ms", "ms"}, {"broadcast.plan_ms", "ms"}, {"radio.run_ms", "ms"}, {"flight.encode_ms", "ms"},
	{"flight.verify_ms", "ms"},
	{"workload.deploy_ms.alloc_mb", "MB"}, {"geom.udg_ms.alloc_mb", "MB"}, {"cnet.build_ms.alloc_mb", "MB"},
	{"timeslot.assign_ms.alloc_mb", "MB"}, {"core.verify_ms.alloc_mb", "MB"}, {"broadcast.plan_ms.alloc_mb", "MB"},
	{"radio.run_ms.alloc_mb", "MB"}, {"flight.encode_ms.alloc_mb", "MB"}, {"flight.verify_ms.alloc_mb", "MB"},
	{"workload.deploy_ms.slope", "log2"}, {"geom.udg_ms.slope", "log2"}, {"cnet.build_ms.slope", "log2"},
	{"timeslot.assign_ms.slope", "log2"}, {"core.verify_ms.slope", "log2"}, {"broadcast.plan_ms.slope", "log2"},
	{"radio.run_ms.slope", "log2"}, {"flight.encode_ms.slope", "log2"}, {"flight.verify_ms.slope", "log2"},
	{"cnet.structural_rounds", "count/op"}, {"timeslot.recalcs", "count/op"}, {"flight.bytes", "B/op"},
	{"cnet.movein_ms", "ms"}, {"cnet.moveout_ms", "ms"}, {"timeslot.onjoin_ms", "ms"},
	{"timeslot.onmoveout_ms", "ms"}, {"multicast.onmoveout_ms", "ms"}, {"cnet.moveout_ms_p99", "ms"},
	{"timeslot.onmoveout_ms_p99", "ms"},
	{"cnet.reinserted", "count/op"}, {"cnet.root_rebuilds", "count/op"}, {"timeslot.maint_rounds", "count/op"},
	{"broadcast.icff_plan_ms", "ms"}, {"broadcast.cff_plan_ms", "ms"}, {"broadcast.dfo_plan_ms", "ms"},
	{"multicast.plan_ms", "ms"},
	{"radio.act_ms", "ms"}, {"radio.resolve_ms", "ms"}, {"radio.deliver_ms", "ms"}, {"radio.stitch_ms", "ms"},
	{"radio.barrier_wait_ms", "ms"}, {"radio.imbalance", "ratio"},
	{"radio.rounds", "count/run"}, {"radio.events", "count/run"}, {"radio.node_rounds", "count/run"},
	{"dist.connect_ms", "ms"}, {"dist.run_ms", "ms"}, {"dist.close_ms", "ms"},
	{"dist.round_us_p50", "us"}, {"dist.round_us_p99", "us"},
	{"dist.rounds", "count/op"}, {"dist.crashed", "count"},
	{"bench.trace_overhead", "ratio"}, {"bench.span_coverage", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type config struct {
	w       workloadDef
	seed    int64
	seconds float64
	trace   bool
	scale   string
	sz      sizes
	digests string
	spans   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: build-scale, churn-steady or broadcast-mix")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	scale := fs.String("scale", "full", "input sizes: full, or tiny for a smoke pass")
	digests := fs.String("digests", "digests.json", "committed digests of the default seed's runs")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: *scale, digests: *digests, spans: *spans}
	var ok bool
	if cfg.sz, ok = scales[*scale]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --scale %q\n", *scale)
		return 2
	}
	for _, w := range workloads {
		if w.name == *name {
			cfg.w = w
		}
	}
	if cfg.w.name == "" || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if cfg.w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.w.procs))
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.w.name, cfg.seed))
	}

	var res *outcome
	var err error
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.w.name, err)
		return 2
	}
	if err := res.checkDigest(cfg); err != nil {
		res.failures = append(res.failures, err)
	}
	for i, f := range res.failures {
		if i == 5 {
			fmt.Fprintf(stderr, "perfbench: ... %d more failures\n", len(res.failures)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: FAIL: %v\n", f)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	stamp := res.stamp(cfg)
	line, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Fprintf(stdout, "%s\n", line)
	if cfg.trace {
		if err := res.tracer.write(cfg.spans, stamp); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	correct := len(res.failures) == 0
	line, _ = json.Marshal(result{
		Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: res.values(defs),
	})
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run measured and found wrong.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int
	ops               int
	prefix            string
	failures          []error
	tracer            *tracer
}

func (o *outcome) values(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := o.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func (o *outcome) add(p phase) {
	o.attempted += p.ops
	o.failed += p.failed
	o.failures = append(o.failures, p.failures...)
}

// checkDigest compares the default seed's digest with the committed one.
func (o *outcome) checkDigest(cfg config) error {
	if cfg.seed != defaultSeed {
		return nil
	}
	raw, err := os.ReadFile(cfg.digests)
	if err != nil {
		return fmt.Errorf("reading committed digests: %w", err)
	}
	var committed map[string]map[string]string
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("parsing %s: %w", cfg.digests, err)
	}
	if want := committed[cfg.scale][cfg.w.name]; o.prefix != want {
		return fmt.Errorf("digest of the first %d ops is %s, committed %q", cfg.w.prefixOps, o.prefix, want)
	}
	return nil
}

// stamp describes the host and the run, so every output carries them.
func (o *outcome) stamp(cfg config) map[string]any {
	load := "unavailable"
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil && len(strings.Fields(string(raw))) >= 3 {
		load = strings.Join(strings.Fields(string(raw))[:3], " ")
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace, "scale": cfg.scale,
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "loadavg": load,
		"go": runtime.Version(), "commit": commit, "ops": o.ops, "tail_quantile": cfg.w.tail,
	}
}

// phase is one timed loop over a workload's ops.
type phase struct {
	lat      []float64     // per-op latency, ms
	wall     time.Duration // timed work: ops, periodic work and finish
	ops      int
	failed   int
	failures []error
	prefix   string // digest after prefixOps ops
	full     string // digest of the whole phase
	heapMB   float64
}

// runPhase runs ops until seconds have passed and at least prefixOps ops
// are done or, when exact > 0, exactly exact ops. It stops early at an op
// that fails.
func runPhase(b bench, w workloadDef, t *tracer, seconds float64, exact int) phase {
	var p phase
	d := newDigest()
	fail := func(err error) {
		p.failed++
		p.failures = append(p.failures, err)
	}
	runtime.GC()
	heap := startHeapLive()
	begin := time.Now()
	for i := 0; ; i++ {
		if exact > 0 && i == exact || exact == 0 && i >= w.prefixOps && time.Since(begin).Seconds() >= seconds {
			break
		}
		t.setOp(i)
		s := t.begin("bench.op")
		start := time.Now()
		extra, err := b.op(i)
		took := time.Since(start)
		t.end(s)
		p.wall += took
		p.lat = append(p.lat, float64(took-extra)/1e6)
		p.ops++
		if err != nil {
			// A failed op leaves the workload's state undefined: stop.
			fail(err)
			p.heapMB = heap.finish()
			return p
		}
		if err := b.after(i, d); err != nil {
			fail(err)
		}
		if p.ops == w.prefixOps {
			p.prefix = d.sum()
		}
	}
	t.setOp(p.ops)
	s := t.begin("bench.finish")
	start := time.Now()
	err := b.finish(d)
	p.wall += time.Since(start)
	t.end(s)
	p.heapMB = heap.finish()
	if err != nil {
		// A failed final check fails the run's last op.
		p.failures = append(p.failures, err)
		if p.failed < p.ops {
			p.failed++
		}
	}
	p.full = d.sum()
	return p
}

func runUntraced(cfg config) (*outcome, error) {
	var setup []float64
	var b bench
	for r := 0; r < setupReps; r++ {
		b = nil
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = cfg.w.setup(cfg.seed, cfg.sz, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	p := runPhase(b, cfg.w, nil, cfg.seconds, 0)
	o := &outcome{ops: p.ops, prefix: p.prefix}
	o.add(p)
	o.metrics = map[string]float64{
		"setup_s":      median(setup),
		"ops_per_s":    float64(p.ops) / p.wall.Seconds(),
		"op_ms_p50":    median(p.lat),
		"op_ms_tail":   quantile(p.lat, cfg.w.tail),
		"heap_live_mb": p.heapMB,
	}
	return o, nil
}

// runTraced runs the workload untraced for half the time, then sets up
// afresh and runs the same ops traced. Both runs must reach the same
// digest; their wall times give the tracing overhead. build-scale also
// runs the same networks traced at half the size, for the stage slopes.
func runTraced(cfg config) (*outcome, error) {
	b, err := cfg.w.setup(cfg.seed, cfg.sz, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain := runPhase(b, cfg.w, nil, cfg.seconds/2, 0)
	b = nil
	o := &outcome{ops: plain.ops, prefix: plain.prefix, tracer: newTracer(), metrics: map[string]float64{}}
	o.add(plain)
	if b, err = cfg.w.setup(cfg.seed, cfg.sz, o.tracer); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	traced := runPhase(b, cfg.w, o.tracer, 0, plain.ops)
	o.add(traced)
	if traced.full != plain.full {
		o.failures = append(o.failures, errors.New("the traced run's digest differs from the untraced run's"))
	}
	durs, allocs := o.tracer.perOp()
	for name, xs := range durs {
		o.metrics[name+"_ms"] = median(xs) / 1e6
		o.metrics[name+"_ms_p99"] = quantile(xs, 0.99) / 1e6
		o.metrics[name+"_ms.alloc_mb"] = median(allocs[name]) / (1 << 20)
	}
	b.counts(o.metrics, traced.ops)
	o.metrics["bench.trace_overhead"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	o.metrics["bench.span_coverage"] = o.tracer.coverage()

	if cfg.w.name == "build-scale" {
		half := cfg.sz
		half.build /= 2
		ht := newTracer()
		if b, err = setupBuild(cfg.seed, half, ht); err != nil {
			return nil, fmt.Errorf("set-up at n/2: %w", err)
		}
		o.add(runPhase(b, cfg.w, ht, 0, plain.ops))
		halfDurs, _ := ht.perOp()
		for name, xs := range durs {
			o.metrics[name+"_ms.slope"] = math.Log2(median(xs) / median(halfDurs[name]))
		}
	}
	return o, nil
}
