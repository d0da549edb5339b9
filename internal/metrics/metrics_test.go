package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(7)
	g.Dec()
	g.Add(-2)
	g.Inc()
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("ops_total", "ops", "system").With("lorm")
	b := r.CounterVec("ops_total", "ops", "system").With("lorm")
	if a != b {
		t.Fatal("same family+labels must resolve to the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles must share state")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different type must panic")
		}
	}()
	r.GaugeVec("ops_total", "ops", "system")
}

func TestBucketIndexAndBounds(t *testing.T) {
	cases := []struct {
		v   float64
		idx int
		le  float64
	}{
		{0, 0, 0}, {1, 1, 1}, {2, 2, 3}, {3, 2, 3}, {4, 3, 7},
		{7, 3, 7}, {8, 4, 15}, {0.5, 1, 1}, {1.2, 2, 3}, {1023, 10, 1023}, {1024, 11, 2047},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.idx {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.idx)
		}
		if got := BucketUpperBound(c.idx); got != c.le {
			t.Errorf("BucketUpperBound(%d) = %v, want %v", c.idx, got, c.le)
		}
	}
	if !math.IsInf(BucketUpperBound(NumBuckets-1), 1) {
		t.Error("last bucket bound must be +Inf")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.ObserveInt(i)
	}
	hv := h.Value()
	if hv.Count != 100 {
		t.Fatalf("count = %d", hv.Count)
	}
	if hv.Sum != 5050 {
		t.Fatalf("sum = %v, want 5050 (exact integer accumulation)", hv.Sum)
	}
	if m := hv.Mean(); m != 50.5 {
		t.Fatalf("mean = %v", m)
	}
	// Bucketed quantiles are estimates; they must land in the right
	// power-of-two neighborhood.
	if q := hv.Quantile(0.5); q < 32 || q > 63 {
		t.Fatalf("p50 = %v, want within [32, 63]", q)
	}
	if q := hv.Quantile(0.99); q < 64 || q > 127 {
		t.Fatalf("p99 = %v, want within [64, 127]", q)
	}
	if q := (HistogramValue{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.ObserveInt(3)
		b.ObserveInt(12)
	}
	av, bv := a.Value(), b.Value()
	av.Merge(bv)
	if av.Count != 20 || av.Sum != 150 {
		t.Fatalf("merged = %+v", av)
	}
	if av.Buckets[2] != 10 || av.Buckets[4] != 10 {
		t.Fatalf("merged buckets = %v", av.Buckets[:8])
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("conc_total", "", "worker").With("w")
	h := r.HistogramVec("conc_hist", "", "worker").With("w")
	g := r.Gauge("conc_gauge", "")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.ObserveInt(i % 64)
				g.Inc()
				if i%2 == 0 {
					// Concurrent snapshots must not block or race writers.
					_ = h.Value()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	hv := h.Value()
	if hv.Count != workers*per {
		t.Fatalf("histogram count = %d, want %d", hv.Count, workers*per)
	}
	var perWorker int
	for i := 0; i < per; i++ {
		perWorker += i % 64
	}
	wantSum := float64(workers * perWorker)
	if hv.Sum != wantSum {
		t.Fatalf("histogram sum = %v, want %v", hv.Sum, wantSum)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestZeroAllocRecordPath(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("alloc_total", "", "system").With("lorm")
	h := r.HistogramVec("alloc_hist", "", "system").With("lorm")
	g := r.Gauge("alloc_gauge", "")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v bytes/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveInt(17) }); n != 0 {
		t.Fatalf("Histogram.ObserveInt allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op, want 0", n)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("req_total", "requests", "verb").With("get").Add(3)
	r.Gauge("temp", "temperature").Set(-2)
	h := r.HistogramVec("lat", "latency", "system").With(`o"dd\`)
	h.ObserveInt(1)
	h.ObserveInt(5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{verb="get"} 3`,
		"# HELP temp temperature",
		"temp -2",
		"# TYPE lat histogram",
		`lat_bucket{system="o\"dd\\",le="1"} 1`,
		`lat_bucket{system="o\"dd\\",le="7"} 2`,
		`lat_bucket{system="o\"dd\\",le="+Inf"} 2`,
		`lat_sum{system="o\"dd\\"} 6`,
		`lat_count{system="o\"dd\\"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be `name{...} value` with a parseable value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("ops_total", "ops", "system", "kind").With("lorm", "discover").Add(9)
	r.HistogramVec("hops", "per-op hops", "system").With("lorm").ObserveInt(4)
	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	f, ok := back.Family("ops_total")
	if !ok || f.Type != "counter" {
		t.Fatalf("ops_total family = %+v, %v", f, ok)
	}
	if f.Total() != 9 {
		t.Fatalf("ops_total total = %v", f.Total())
	}
	if f.Metrics[0].Labels["system"] != "lorm" || f.Metrics[0].Labels["kind"] != "discover" {
		t.Fatalf("labels = %v", f.Metrics[0].Labels)
	}
	hf, ok := back.Family("hops")
	if !ok || hf.Metrics[0].Count != 1 || hf.Metrics[0].Sum != 4 {
		t.Fatalf("hops family = %+v, %v", hf, ok)
	}
	if hf.Metrics[0].Buckets[len(hf.Metrics[0].Buckets)-1].Le != "+Inf" {
		t.Fatalf("buckets must end at +Inf: %+v", hf.Metrics[0].Buckets)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.CounterVec("ops_total", "ops", "system").With("lorm").Add(5)
	a.Counter("only_in_a_total", "").Add(3)
	ha := a.HistogramVec("lat", "latency", "op").With("query")
	ha.ObserveInt(1)
	ha.ObserveInt(100)

	b := NewRegistry()
	b.CounterVec("ops_total", "ops", "system").With("lorm").Add(7)
	b.CounterVec("ops_total", "ops", "system").With("maan").Add(2)
	b.Counter("only_in_b_total", "").Add(4)
	hb := b.HistogramVec("lat", "latency", "op").With("query")
	hb.ObserveInt(100000)

	merged := a.Snapshot().Merge(b.Snapshot())

	f, ok := merged.Family("ops_total")
	if !ok || f.Total() != 14 {
		t.Fatalf("merged ops_total = %+v (ok=%v), want total 14", f, ok)
	}
	bySystem := map[string]float64{}
	for _, m := range f.Metrics {
		bySystem[m.Labels["system"]] += m.Value
	}
	if bySystem["lorm"] != 12 || bySystem["maan"] != 2 {
		t.Fatalf("merged per-system values = %v", bySystem)
	}
	for _, name := range []string{"only_in_a_total", "only_in_b_total"} {
		if f, ok := merged.Family(name); !ok || f.Total() == 0 {
			t.Fatalf("one-sided family %s lost in merge: %+v (ok=%v)", name, f, ok)
		}
	}

	lat, ok := merged.Family("lat")
	if !ok {
		t.Fatal("merged lat family missing")
	}
	m := lat.Metrics[0]
	if m.Count != 3 || m.Sum != 100101 {
		t.Fatalf("merged histogram count=%d sum=%v, want 3 and 100101", m.Count, m.Sum)
	}
	last := m.Buckets[len(m.Buckets)-1]
	if last.Le != "+Inf" || last.Count != 3 {
		t.Fatalf("merged +Inf bucket = %+v, want count 3", last)
	}
	// Cumulative counts must never decrease across bounds.
	var prev uint64
	for _, bk := range m.Buckets {
		if bk.Count < prev {
			t.Fatalf("cumulative bucket counts decrease: %+v", m.Buckets)
		}
		prev = bk.Count
	}
	// The short side's trimmed tail must read as its total: bounds between
	// 100 and 100000 hold a's 2 observations.
	for _, bk := range m.Buckets[:len(m.Buckets)-1] {
		if bk.Le == "128" && bk.Count != 2 {
			t.Fatalf("bucket le=128 count = %d, want 2 (a's total)", bk.Count)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "up_total 1") {
		t.Fatalf("body = %q", b.String())
	}

	resp2, err := srv.Client().Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Family("up_total"); !ok {
		t.Fatalf("json snapshot missing family: %+v", snap)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().CounterVec("bench_total", "", "system").With("lorm")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().HistogramVec("bench_hist", "", "system").With("lorm")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.ObserveInt(i & 1023)
			i++
		}
	})
}

// Many goroutines raise one peak at once and the peak must end at the
// largest value offered. A load-compare-Set loop loses it: a goroutine that
// compared against an older, lower peak can Set its own value after the
// maximum landed.
func TestGaugeSetMaxConcurrent(t *testing.T) {
	var g Gauge
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.SetMax(int64(i*workers + w))
			}
		}(w)
	}
	wg.Wait()
	if got, want := g.Value(), int64(per*workers-1); got != want {
		t.Fatalf("peak = %d, want %d", got, want)
	}
	g.SetMax(3)
	if got := g.Value(); got != per*workers-1 {
		t.Fatalf("SetMax lowered the peak to %d", got)
	}
}
