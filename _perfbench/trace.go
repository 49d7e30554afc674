package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"dynsens/internal/broadcast"
	"dynsens/internal/radio"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; the program itself carries no instrumentation.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	alloc0 uint64
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span's layer: the name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced runs execute the same code.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int
	op     int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// stamp returns the time since the tracer's epoch and the bytes allocated
// so far.
func (t *tracer) stamp() (int64, uint64) {
	metrics.Read(t.sample)
	return int64(time.Since(t.epoch)), t.sample[0].Value.Uint64()
}

// setOp tags the spans that follow with operation id op.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	now, alloc := t.stamp()
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: now, alloc0: alloc})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now, alloc := t.stamp()
	s := &t.spans[id]
	s.End, s.Alloc = now, alloc-s.alloc0
	t.open = t.open[:len(t.open)-1]
}

// split divides the closed span parent at instant (at, alloc) into two
// child spans, for a call whose internal stage boundary is seen only
// through a hook.
func (t *tracer) split(parent int, first, second string, at int64, alloc uint64) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	t.spans = append(t.spans,
		span{Name: first, Op: p.Op, Parent: parent, Start: p.Start, End: at, Alloc: alloc - p.alloc0},
		span{Name: second, Op: p.Op, Parent: parent, Start: at, End: p.End, Alloc: p.Alloc - (alloc - p.alloc0)})
}

// perOp sums each span name's duration (ns) and allocation (bytes) per
// operation; only operations in which the name occurs are listed.
func (t *tracer) perOp() (durs map[string][]float64, allocs map[string][]float64) {
	type key struct {
		name string
		op   int
	}
	d := map[key]int64{}
	a := map[key]uint64{}
	var keys []key
	for _, s := range t.spans {
		k := key{s.Name, s.Op}
		if _, ok := d[k]; !ok {
			keys = append(keys, k)
		}
		d[k] += s.dur()
		a[k] += s.Alloc
	}
	durs, allocs = map[string][]float64{}, map[string][]float64{}
	for _, k := range keys {
		durs[k.name] = append(durs[k.name], float64(d[k]))
		allocs[k.name] = append(allocs[k.name], float64(a[k]))
	}
	return durs, allocs
}

// selfTimes returns each layer's self time in ns: span durations minus
// the part their child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]int64{}
	for i, s := range t.spans {
		self[s.layer()] += s.dur() - child[i]
	}
	return self
}

// coverage is the share of top-level span time that layer spans cover.
func (t *tracer) coverage() float64 {
	var top, covered int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			top += s.dur()
		} else if t.spans[s.Parent].Parent < 0 {
			covered += s.dur()
		}
	}
	if top == 0 {
		return 0
	}
	return float64(covered) / float64(top)
}

// write stores the stamp, every span and the per-layer self times as JSON
// lines at path.
func (t *tracer) write(path string, stamp map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	summary := make([]map[string]any, 0, len(layers))
	for _, l := range layers {
		summary = append(summary, map[string]any{"layer": l, "self_ms": float64(self[l]) / 1e6})
	}
	if err := enc.Encode(map[string]any{"self_time": summary, "coverage": t.coverage()}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// radioStats gathers the radio layer's per-run figures in traced runs
// from the kernel's own radio.Perf collector; untraced runs attach none.
type radioStats struct {
	perf       *radio.Perf
	nodeRounds float64
}

func newRadioStats(t *tracer) radioStats {
	if t == nil {
		return radioStats{}
	}
	return radioStats{perf: radio.NewPerf()}
}

// note counts a run's node-rounds: nodes hosted times rounds executed.
func (r *radioStats) note(p *broadcast.Plan, m broadcast.Metrics) {
	r.nodeRounds += float64(len(p.Programs) * m.Rounds)
}

func (r *radioStats) counts(m map[string]float64) {
	if r.perf == nil {
		return
	}
	s := r.perf.Snapshot()
	if s.Runs == 0 {
		return
	}
	runs := float64(s.Runs)
	for _, ph := range [...]struct{ phase, name string }{
		{"act", "radio.act_ms"}, {"resolve", "radio.resolve_ms"}, {"deliver", "radio.deliver_ms"},
		{"seq-stitch", "radio.stitch_ms"}, {"barrier-wait", "radio.barrier_wait_ms"},
	} {
		m[ph.name] = float64(s.PhaseNs(ph.phase)) / runs / 1e6
	}
	m["radio.imbalance"] = s.Imbalance()
	m["radio.rounds"] = float64(s.Rounds) / runs
	m["radio.events"] = float64(s.Events) / runs
	m["radio.node_rounds"] = r.nodeRounds / runs
}
