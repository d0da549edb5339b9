// Package metrics is the process-wide observability layer: lock-free
// counters, gauges and power-of-two-bucketed histograms collected into a
// named Registry with labeled families, exposed as Prometheus text format
// (Registry.WritePrometheus, Registry.Handler) and as a structured JSON
// snapshot (Registry.Snapshot).
//
// The package is dependency-free (stdlib only) and designed around one
// invariant: the record path — Counter.Add, Gauge.Set, Histogram.Observe —
// performs only atomic operations on pre-resolved handles. No locks, no
// allocation, no map lookups. Instrumented hot paths (the snapshot-based
// overlay lookups, the transport read loop) therefore pay a few atomic adds
// per event and nothing else. Family and child creation (Registry.CounterVec,
// CounterVec.With) may lock and allocate; callers resolve handles once at
// setup and hold them.
//
// Histograms bucket by powers of two: bucket i counts observations v with
// ceil(v) in [2^(i-1), 2^i), so any non-negative value lands in one of 65
// fixed buckets via a single bit-length instruction. Buckets are plain
// atomic counters, which makes histograms mergeable by addition and the
// snapshot path wait-free with respect to writers.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; all methods are safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer value that can go up and down (active connections,
// live nodes). The zero value is ready to use; all methods are safe for
// concurrent use and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// SetMax raises the value to n if n is larger, so concurrent callers
// recording peaks never lower one another's.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NumBuckets is the fixed bucket count of every Histogram: one bucket per
// possible bit length of a uint64 observation (0..64).
const NumBuckets = 65

// bucketIndex maps a non-negative observation to its bucket: the bit length
// of ceil(v). Index 0 holds exact zeros; index i ≥ 1 holds values whose
// ceiling lies in [2^(i-1), 2^i).
func bucketIndex(v float64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	if float64(u) < v {
		u++ // ceil for fractional observations
	}
	return bits.Len64(u)
}

// BucketUpperBound returns the inclusive upper bound of bucket i — the
// largest integer observation the bucket admits — and +Inf for the last
// bucket. Bounds are 0, 1, 3, 7, 15, ... (2^i − 1).
func BucketUpperBound(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i) - 1)
}

// Histogram is a fixed-bucket power-of-two histogram. The zero value is
// ready to use; Observe is safe for concurrent use and allocation-free.
type Histogram struct {
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one observation. Negative values are clamped to 0 (the
// domain here is counts: hops, bytes, nodes).
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveInt records one integer observation.
func (h *Histogram) ObserveInt(n int) { h.Observe(float64(n)) }

// Value captures the histogram's current state. Buckets are read without
// blocking writers, so under concurrent observation the copy is a momentary
// view, not a strict linearization — adequate for exposition and digests.
func (h *Histogram) Value() HistogramValue {
	var hv HistogramValue
	hv.Count = h.count.Load()
	hv.Sum = math.Float64frombits(h.sumBits.Load())
	for i := range h.buckets {
		hv.Buckets[i] = h.buckets[i].Load()
	}
	return hv
}

// HistogramValue is a plain-data copy of a histogram, mergeable by
// addition.
type HistogramValue struct {
	Count   uint64
	Sum     float64
	Buckets [NumBuckets]uint64
}

// Merge adds another histogram's observations into this one.
func (hv *HistogramValue) Merge(o HistogramValue) {
	hv.Count += o.Count
	hv.Sum += o.Sum
	for i := range hv.Buckets {
		hv.Buckets[i] += o.Buckets[i]
	}
}

// Quantile estimates the p-quantile (p in [0, 1]) by linear interpolation
// inside the bucket containing the rank. Zero observations yield 0.
func (hv HistogramValue) Quantile(p float64) float64 {
	if hv.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(hv.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, n := range hv.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo := 0.0
			if i > 0 {
				lo = float64(uint64(1) << uint(i-1)) // bucket i admits [2^(i-1), 2^i)
			}
			hi := BucketUpperBound(i)
			if math.IsInf(hi, 1) || hi < lo {
				return lo
			}
			frac := (rank - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return BucketUpperBound(NumBuckets - 1)
}

// Mean returns the average observation, 0 with no observations.
func (hv HistogramValue) Mean() float64 {
	if hv.Count == 0 {
		return 0
	}
	return hv.Sum / float64(hv.Count)
}
