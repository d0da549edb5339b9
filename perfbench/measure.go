package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	lormmetrics "lorm/internal/metrics"
)

// quantile returns the nearest-rank p-quantile of xs: the smallest sample
// with at least p of all samples at or below it.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	k := int(math.Ceil(p * float64(len(xs))))
	if k < 1 {
		k = 1
	}
	return xs[k-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailParts is how many consecutive parts tailQuantile splits samples into.
const tailParts = 3

// tailQuantile is the median, over tailParts consecutive parts of xs in
// the order recorded, of each part's p-quantile. A stall confined to one
// part of the timed phase, such as a pause of the machine under the
// benchmark, leaves it unchanged, where it would set the tail of all
// samples pooled.
func tailQuantile(xs []float64, p float64) float64 {
	if len(xs) < tailParts {
		return quantile(xs, p)
	}
	qs := make([]float64, tailParts)
	for i := range qs {
		qs[i] = quantile(xs[i*len(xs)/tailParts:(i+1)*len(xs)/tailParts], p)
	}
	return median(qs)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Runtime samples read from runtime/metrics around the timed phase.
var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// probe is the program's state at one instant: its own exported
// counters, the Go runtime's, and the process CPU time.
type probe struct {
	at      time.Time
	reg     lormmetrics.Snapshot
	runtime []metrics.Sample
	mem     runtime.MemStats
	cpu     time.Duration
}

func takeProbe() probe {
	p := probe{reg: lormmetrics.Default().Snapshot(), runtime: make([]metrics.Sample, len(runtimeSamples))}
	for i, name := range runtimeSamples {
		p.runtime[i].Name = name
	}
	metrics.Read(p.runtime)
	runtime.ReadMemStats(&p.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.at = time.Now()
	return p
}

// series finds the registry series of family name whose labels include
// the given name/value pairs.
func (p probe) series(name string, kv ...string) lormmetrics.MetricSnapshot {
	f, ok := p.reg.Family(name)
	if !ok {
		return lormmetrics.MetricSnapshot{}
	}
	for _, m := range f.Metrics {
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			if m.Labels[kv[i]] != kv[i+1] {
				match = false
			}
		}
		if match {
			return m
		}
	}
	return lormmetrics.MetricSnapshot{}
}

// delta is how far a counter advanced from p to q.
func delta(p, q probe, name string, kv ...string) float64 {
	return q.series(name, kv...).Value - p.series(name, kv...).Value
}

// histDelta is how far a histogram's sum advanced from p to q.
func histDelta(p, q probe, name string, kv ...string) float64 {
	return q.series(name, kv...).Sum - p.series(name, kv...).Sum
}

func runtimeValue(p probe, name string) metrics.Value {
	i := slices.Index(runtimeSamples, name)
	return p.runtime[i].Value
}

func runtimeDelta(p, q probe, name string) float64 {
	a, b := runtimeValue(p, name), runtimeValue(q, name)
	if a.Kind() == metrics.KindUint64 {
		return float64(b.Uint64() - a.Uint64())
	}
	return b.Float64() - a.Float64()
}

// gcPauses lists in µs the stop-the-world pause of every GC cycle that
// ended between p and q, or of the last 256 the runtime remembers.
func gcPauses(p, q probe) []float64 {
	n := min(q.mem.NumGC-p.mem.NumGC, uint32(len(q.mem.PauseNs)))
	pauses := make([]float64, n)
	for i := range pauses {
		pauses[i] = float64(q.mem.PauseNs[(q.mem.NumGC+255-uint32(i))%256]) / 1e3
	}
	return pauses
}
