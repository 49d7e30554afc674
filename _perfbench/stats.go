package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapLive samples, every millisecond, the live heap — the bytes a
// garbage collection found reachable — and keeps one reading per
// collection. Its figure is the 90th percentile of those readings: the
// largest reading depends on which collection happened to land at an
// op's most crowded moment, and moved by up to a fifth between runs of
// build-scale; the percentile over a run's hundreds of collections does
// not.
type heapLive struct {
	stop  chan struct{}
	done  chan struct{}
	cycle uint64
	live  []float64
}

func startHeapLive() *heapLive {
	h := &heapLive{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sample)
	h.cycle = sample[1].Value.Uint64()
	live := sample[0].Value.Uint64()
	read := func() {
		metrics.Read(sample)
		if c := sample[1].Value.Uint64(); c != h.cycle {
			h.cycle = c
			h.live = append(h.live, float64(sample[0].Value.Uint64()))
		}
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				if len(h.live) == 0 {
					h.live = append(h.live, float64(live))
				}
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the 90th percentile
// in MB.
func (h *heapLive) finish() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.live, 0.9) / (1 << 20)
}

// digest is a running hash of a run's simulated outputs.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(vals ...int64) {
	for _, v := range vals {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
		d.h.Write(d.buf[:])
	}
}

func (d *digest) addBytes(b []byte) {
	d.add(int64(len(b)))
	d.h.Write(b)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }
