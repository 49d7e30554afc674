package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"dynsens/internal/broadcast"
	"dynsens/internal/cnet"
	"dynsens/internal/core"
	"dynsens/internal/flight"
	"dynsens/internal/netio"
	"dynsens/internal/workload"
)

// buildBench is build-scale: one op deploys a fresh network and runs the
// whole dynsim pipeline on it — deployment, unit-disk graph, CNet
// construction by repeated node-move-in, time-slot assignment, Verify,
// an ICFF broadcast from the sink into a flight recording, and the
// offline verification of that recording.
type buildBench struct {
	seed  int64
	n     int
	t     *tracer
	radio radioStats

	// Outputs of the last op, checked by after.
	net *core.Network
	m   broadcast.Metrics
	rec []byte
	rep *flight.Report

	structural, recalcs, bytes float64
}

func setupBuild(seed int64, sz sizes, t *tracer) (bench, error) {
	// Set-up warms the pipeline on a network of its own, of the size the
	// ops build.
	warm := newBuild(seed, sz.build, nil)
	if _, err := warm.op(-1); err != nil {
		return nil, err
	}
	if err := warm.after(-1, newDigest()); err != nil {
		return nil, err
	}
	return newBuild(seed, sz.build, t), nil
}

func newBuild(seed int64, n int, t *tracer) *buildBench {
	return &buildBench{seed: seed, n: n, t: t, radio: newRadioStats(t)}
}

func (b *buildBench) op(i int) (time.Duration, error) {
	t := b.t
	seed := subSeed(b.seed, i)
	s := t.begin("workload.deploy")
	d, err := workload.IncrementalConnected(paperConfig(seed, b.n))
	t.end(s)
	if err != nil {
		return 0, err
	}
	s = t.begin("geom.udg")
	g := d.Graph()
	t.end(s)

	var buf bytes.Buffer
	fw := flight.NewWriter(&buf)
	fw.WriteHeader(flight.Header{
		Seed: seed, N: b.n, Side: int(math.Round(math.Sqrt(float64(b.n) / 5))),
		Channels: 1, Source: 0, Protocol: "ICFF",
	})
	// The last move-in delta marks the end of CNet construction inside
	// core.Build; slot assignment follows it.
	var at int64
	var alloc uint64
	hook := func(dl cnet.Delta) {
		fw.WriteDelta(flightDelta(dl))
		if t != nil {
			at, alloc = t.stamp()
		}
	}
	s = t.begin("core.build")
	net, err := core.Build(g, core.Config{DeltaHook: hook})
	t.end(s)
	if err != nil {
		return 0, err
	}
	t.split(s, "cnet.build", "timeslot.assign", at, alloc)

	s = t.begin("core.verify")
	err = net.Verify()
	t.end(s)
	if err != nil {
		return 0, fmt.Errorf("network %d fails Verify: %w", i, err)
	}

	s = t.begin("broadcast.plan")
	plan, err := broadcast.ICFFPlan(net.Slots(), net.Root(), 1, nil, nil)
	t.end(s)
	if err != nil {
		return 0, err
	}
	s = t.begin("radio.run")
	m, err := plan.Run(net.Graph(), broadcast.Options{Flight: fw, Perf: b.radio.perf})
	t.end(s)
	if err != nil {
		return 0, err
	}
	b.radio.note(plan, m)

	s = t.begin("flight.encode")
	netio.RecordTopology(fw, net)
	err = fw.Close()
	t.end(s)
	if err != nil {
		return 0, err
	}
	s = t.begin("flight.verify")
	rec, err := flight.DecodeBytes(buf.Bytes())
	var rep *flight.Report
	if err == nil {
		rep = flight.Verify(rec)
	}
	t.end(s)
	if err != nil {
		return 0, err
	}
	b.net, b.m, b.rec, b.rep = net, m, buf.Bytes(), rep
	return 0, nil
}

func (b *buildBench) after(i int, d *digest) error {
	defer func() { b.net, b.rec, b.rep = nil, nil, nil }()
	if !b.rep.Passed() {
		var sb strings.Builder
		_ = b.rep.Write(&sb)
		return fmt.Errorf("network %d: flight.Verify fails:\n%s", i, sb.String())
	}
	if err := boundsOf(b.net.Slots()).check(b.m, b.net.Root()); err != nil {
		return fmt.Errorf("network %d: %w", i, err)
	}
	st := b.net.Stats()
	d.add(int64(b.n))
	d.addStats(st)
	d.addMetrics(b.m)
	d.addBytes(b.rec)
	b.structural += float64(st.StructuralRounds)
	b.recalcs += float64(b.net.Slots().Recalcs())
	b.bytes += float64(len(b.rec))
	return nil
}

func (b *buildBench) finish(*digest) error { return nil }

func (b *buildBench) counts(m map[string]float64, ops int) {
	m["cnet.structural_rounds"] = b.structural / float64(ops)
	m["timeslot.recalcs"] = b.recalcs / float64(ops)
	m["flight.bytes"] = b.bytes / float64(ops)
	b.radio.counts(m)
}
