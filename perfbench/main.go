package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"lorm/internal/resource"
)

// metricDef names one reported metric.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
}

// endToEnd are the metrics a gateway user sees, reported by a plain run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "query_p50_ms", unit: "ms"},
	{name: "query_p99_ms", unit: "ms"},
	{name: "announce_p50_ms", unit: "ms"},
	{name: "announce_p99_ms", unit: "ms"},
	{name: "ops_per_s", unit: "1/s", higher: true},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "live_heap_mb", unit: "MB"},
}

// layerMetrics are the per-layer metrics a traced run reports, besides
// the tracing overhead of every end-to-end metric.
var layerMetrics = []metricDef{
	{name: "driver.lag_p99_ms", unit: "ms"},
	{name: "driver.inflight_mean", unit: "count"},
	{name: "transport.call_p50_us", unit: "us"},
	{name: "transport.call_p99_us", unit: "us"},
	{name: "transport.overhead_us_per_frame", unit: "us"},
	{name: "transport.bytes_per_op", unit: "B"},
	{name: "transport.retries", unit: "count"},
	{name: "transport.timeouts", unit: "count"},
	{name: "transport.redials", unit: "count"},
	{name: "transport.pipeline_inflight_peak", unit: "count"},
	{name: "emulate.wan_ms_per_op", unit: "ms"},
	{name: "emulate.wan_share", unit: "ratio"},
	{name: "discovery.discover_us_p50", unit: "us"},
	{name: "discovery.discover_us_p99", unit: "us"},
	{name: "discovery.register_us_p50", unit: "us"},
	{name: "discovery.register_us_p99", unit: "us"},
	{name: "routing.hops_per_query", unit: "count"},
	{name: "routing.visited_per_query", unit: "count"},
	{name: "routing.messages_per_query", unit: "count"},
	{name: "routing.messages_per_announce", unit: "count"},
	{name: "directory.match_entries_per_query", unit: "count"},
	{name: "directory.stage_merges_per_kadd", unit: "count"},
	{name: "directory.max_entries", unit: "count"},
	{name: "directory.entries_end", unit: "count"},
	{name: "runtime.allocs_per_op", unit: "count"},
	{name: "runtime.alloc_bytes_per_op", unit: "B"},
	{name: "runtime.gc_cpu_frac", unit: "ratio"},
	{name: "runtime.gc_pause_p99_us", unit: "us"},
}

const overheadPrefix = "traced.overhead_pct."

// perLayer lists every metric of a traced run.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), layerMetrics...)
	for _, m := range endToEnd {
		defs = append(defs, metricDef{name: overheadPrefix + m.name, unit: "%"})
	}
	return defs
}

// maxOpenLagMS is how late an open-loop workload's generator may send its
// p99 call before the run fails for not keeping its timetable: later than
// a typical operation takes, a backlog rather than timer jitter. The probes
// of closed-loop workloads share saturated CPUs with their load, so their
// lateness is part of what they measure and fails nothing.
const maxOpenLagMS = 10.0

// A plain run builds the stack at least minSetups times and until the
// builds took minSetupTime, at most maxSetups times; setup_s is their
// median and the last build serves the timed phase. Cheap set-ups repeat
// more, so their median is as steady as that of expensive ones.
const (
	minSetups    = 3
	maxSetups    = 20
	minSetupTime = 3 * time.Second
)

// inputs are everything the driver sends, drawn from the seed.
type inputs struct {
	prefill   []resource.Info
	announces []resource.Info // a closed loop's
}

func makeInputs(w workload, seed int64, d time.Duration) *inputs {
	in := &inputs{prefill: prefillInfos(w, seed)}
	if !w.openLoop() {
		in.announces = announceInfos(w, seed, d)
	}
	return in
}

// phase is one timed run over one built stack.
type phase struct {
	values            map[string]float64
	attempted, failed int
	problems          []string
}

// runPhase builds the stack, repeatedly when repeatSetup is set, and
// drives the last build for about d.
func runPhase(w workload, seed int64, d time.Duration, traced, repeatSetup bool) (*phase, error) {
	in := makeInputs(w, seed, d)
	conns := min(2, runtime.NumCPU())
	var st *stack
	var setupTimes []float64
	var spent time.Duration
	for {
		start := time.Now()
		var err error
		st, err = buildStack(w, in.prefill, conns, seed, traced)
		if err != nil {
			return nil, err
		}
		spent += time.Since(start)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		n := len(setupTimes)
		if !repeatSetup || n == maxSetups || n >= minSetups && spent >= minSetupTime {
			break
		}
		st.close()
		runtime.GC()
	}
	defer st.close()
	// Return the earlier builds' memory now, so the runtime does not
	// scavenge it during the timed phase.
	debug.FreeOSMemory()

	rec := &recorder{}
	before := takeProbe()
	if w.openLoop() {
		g := newGen(w, seed, streamOpen)
		openLoop(st, w.rate, int(w.rate*d.Seconds()), nil, g.mixOp, rec)
	} else {
		closedLoop(w, st, in.announces, seed, rec)
	}
	after := takeProbe()

	ph := &phase{values: make(map[string]float64), attempted: rec.attempted, failed: rec.failed}
	if rec.failed > 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("%d of %d operations failed or were answered wrongly; first: %v",
			rec.failed, rec.attempted, rec.firstErr))
	}
	total, maxDir := st.directoryTotal()
	if want := len(in.prefill) + rec.done[opAnnounce]; total != want {
		ph.problems = append(ph.problems, fmt.Sprintf("directories hold %d entries, want prefill %d + acknowledged announces %d",
			total, len(in.prefill), rec.done[opAnnounce]))
	}
	if lag := quantile(rec.openLag, 0.99); w.openLoop() && lag > maxOpenLagMS {
		ph.problems = append(ph.problems, fmt.Sprintf("open-loop generator fell behind its timetable: p99 lag %.3f ms > %.1f ms", lag, maxOpenLagMS))
	}
	ph.problems = append(ph.problems, checkRouting(w, before, after, rec)...)
	measure(ph.values, w, st, rec, before, after)

	store := append(in.prefill[:len(in.prefill):len(in.prefill)], rec.acked...)
	bad, first, err := verify(w, seed, st, store)
	if err != nil {
		return nil, err
	}
	ph.attempted += verifyQueries
	ph.failed += bad
	if bad > 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("%d of %d verification queries disagree with the oracle; first: %v",
			bad, verifyQueries, first))
	}
	ph.values["setup_s"] = median(setupTimes)
	ph.values["directory.max_entries"] = float64(maxDir)
	ph.values["directory.entries_end"] = float64(total)

	// Live heap of the served stack: the acknowledged announces are
	// dropped first (the inputs are no longer referenced), and the second
	// collection empties the pools the first one only moved to their
	// victim caches.
	rec.acked = nil
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ph.values["live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	return ph, nil
}

// verify asks the gateway the verification queries once the timed phase
// is over and compares every answer, owners and match multiset, with that
// of a discovery.Oracle holding store: the prefill and the acknowledged
// announces, the whole final store at replication factor 1.
func verify(w workload, seed int64, st *stack, store []resource.Info) (failed int, first, err error) {
	pool := verifyPool(w, seed)
	want, err := expectedAnswers(store, pool)
	if err != nil {
		return 0, nil, err
	}
	const frame = 8
	for i := 0; i < len(pool); i += frame {
		qs := pool[i : i+frame]
		results, callErr := st.clients[0].DiscoverBatch(qs)
		for j, q := range qs {
			e := callErr
			if e == nil && !results[j].OK {
				e = fmt.Errorf("discover: %s", results[j].Error)
			}
			if e == nil {
				e = checkAnswer(q, results[j].Owners, results[j].Matches)
			}
			if e == nil {
				e = checkExact(want[i+j], results[j].Owners, results[j].Matches)
			}
			if e != nil {
				failed++
				if first == nil {
					first = fmt.Errorf("%v: %w", q.Subs, e)
				}
			}
		}
	}
	return failed, first, nil
}

// checkRouting requires the fabric's exported op counters to advance by
// exactly the operations and costs the gateway returned.
func checkRouting(w workload, before, after probe, rec *recorder) []string {
	if rec.failed > 0 {
		return nil // a failed operation may have routed partway
	}
	var problems []string
	for _, k := range []opKind{opQuery, opAnnounce} {
		kind := "discover"
		if k == opAnnounce {
			kind = "register"
		}
		labels := []string{"system", w.system, "kind", kind}
		ops := delta(before, after, "lorm_ops_total", labels...)
		hops := histDelta(before, after, "lorm_op_hops", labels...)
		visited := histDelta(before, after, "lorm_op_visited", labels...)
		msgs := histDelta(before, after, "lorm_op_messages", labels...)
		c := rec.cost[k]
		if int(ops) != rec.done[k] || int(hops) != c.Hops || int(visited) != c.Visited || int(msgs) != c.Messages {
			problems = append(problems, fmt.Sprintf("%s counters advanced by ops=%v hops=%v visited=%v msgs=%v, gateway returned ops=%d %v",
				kind, ops, hops, visited, msgs, rec.done[k], c))
		}
	}
	return problems
}

// measure fills every metric but setup_s, live_heap_mb and the directory
// sizes from one timed phase.
func measure(v map[string]float64, w workload, st *stack, rec *recorder, before, after probe) {
	elapsed := after.at.Sub(before.at).Seconds()
	ops := float64(rec.done[opQuery] + rec.done[opAnnounce])
	queries, announces := float64(rec.done[opQuery]), float64(rec.done[opAnnounce])

	// An open loop offers the same load throughout the phase, so its p99
	// is taken per third and the median kept, which a stall of the machine
	// in one third leaves unchanged. A closed loop's store grows through
	// the phase, its thirds differ by design and the middle one alone would
	// set the p99, so there all samples are pooled.
	p99 := quantile
	if w.openLoop() {
		p99 = tailQuantile
	}
	v["query_p50_ms"] = quantile(rec.latency[opQuery], 0.50)
	v["query_p99_ms"] = p99(rec.latency[opQuery], 0.99)
	v["announce_p50_ms"] = quantile(rec.latency[opAnnounce], 0.50)
	v["announce_p99_ms"] = p99(rec.latency[opAnnounce], 0.99)
	v["ops_per_s"] = ratio(ops, elapsed)
	v["cpu_us_per_op"] = ratio(float64(after.cpu-before.cpu)/1e3, ops)

	v["driver.lag_p99_ms"] = quantile(rec.lag, 0.99)
	v["driver.inflight_mean"] = ratio(rec.busy.Seconds(), elapsed)

	v["transport.call_p50_us"] = quantile(rec.calls, 0.50)
	v["transport.call_p99_us"] = quantile(rec.calls, 0.99)
	v["transport.bytes_per_op"] = ratio(delta(before, after, "transport_bytes_read_total")+
		delta(before, after, "transport_bytes_written_total"), ops)
	v["transport.retries"] = delta(before, after, "transport_client_retries_total")
	v["transport.timeouts"] = delta(before, after, "transport_client_timeouts_total")
	v["transport.redials"] = delta(before, after, "transport_client_redials_total")
	v["transport.pipeline_inflight_peak"] = float64(rec.peak.Load())

	if l := st.layers; l != nil {
		discReg, discDisc := l.discoveryRegister.snapshot(), l.discoveryDiscover.snapshot()
		served := sum(l.servedRegister.snapshot()) + sum(l.servedDiscover.snapshot())
		wan := served - sum(discReg) - sum(discDisc)
		v["transport.overhead_us_per_frame"] = ratio(sum(rec.calls)-served, float64(len(rec.calls)))
		v["emulate.wan_ms_per_op"] = ratio(wan/1e3, ops)
		v["emulate.wan_share"] = ratio(wan/1e3, sum(rec.latency[opQuery])+sum(rec.latency[opAnnounce]))
		v["discovery.discover_us_p50"] = quantile(discDisc, 0.50)
		v["discovery.discover_us_p99"] = quantile(discDisc, 0.99)
		v["discovery.register_us_p50"] = quantile(discReg, 0.50)
		v["discovery.register_us_p99"] = quantile(discReg, 0.99)
	}

	sys := st.sys.Name()
	for _, r := range []struct {
		name, family, kind string
		n                  float64
	}{
		{"routing.hops_per_query", "lorm_op_hops", "discover", queries},
		{"routing.visited_per_query", "lorm_op_visited", "discover", queries},
		{"routing.messages_per_query", "lorm_op_messages", "discover", queries},
		{"routing.messages_per_announce", "lorm_op_messages", "register", announces},
	} {
		v[r.name] = ratio(histDelta(before, after, r.family, "system", sys, "kind", r.kind), r.n)
	}
	v["directory.match_entries_per_query"] = ratio(delta(before, after, "directory_match_entries_total"), queries)
	v["directory.stage_merges_per_kadd"] = ratio(delta(before, after, "directory_stage_merges_total"),
		delta(before, after, "directory_adds_total")/1000)

	v["runtime.allocs_per_op"] = ratio(runtimeDelta(before, after, "/gc/heap/allocs:objects"), ops)
	v["runtime.alloc_bytes_per_op"] = ratio(runtimeDelta(before, after, "/gc/heap/allocs:bytes"), ops)
	v["runtime.gc_cpu_frac"] = ratio(runtimeDelta(before, after, "/cpu/classes/gc/total:cpu-seconds"),
		runtimeDelta(before, after, "/cpu/classes/total:cpu-seconds")-runtimeDelta(before, after, "/cpu/classes/idle:cpu-seconds"))
	v["runtime.gc_pause_p99_us"] = quantile(gcPauses(before, after), 0.99)
}

// result is the benchmark's last output line.
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

// run measures one workload for about seconds: a plain phase reporting
// the end-to-end metrics, or with traced a plain and a traced phase of
// half the time each, reporting the per-layer metrics and the tracing
// overhead.
func run(w workload, seed int64, seconds int, traced bool) (result, []string, error) {
	d := time.Duration(seconds) * time.Second
	if traced {
		d /= 2
	}
	plain, err := runPhase(w, seed, d, false, !traced)
	if err != nil {
		return result{}, nil, err
	}
	res := result{Attempted: plain.attempted, Failed: plain.failed, Metrics: make(map[string]metricValue)}
	problems := plain.problems
	defs, values := endToEnd, plain.values
	if traced {
		tr, err := runPhase(w, seed, d, true, false)
		if err != nil {
			return result{}, nil, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		problems = append(problems, tr.problems...)
		for _, m := range endToEnd {
			worse := tr.values[m.name] - plain.values[m.name]
			if m.higher {
				worse = -worse
			}
			tr.values[overheadPrefix+m.name] = 100 * ratio(worse, plain.values[m.name])
		}
		defs, values = perLayer(), tr.values
	}
	for _, m := range defs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", m.name, v))
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	res.Correct = len(problems) == 0
	return res, problems, nil
}

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed every input is drawn from")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, problems, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer()
	}
	for _, m := range defs {
		fmt.Printf("  %-40s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	fmt.Printf("  %-40s %14.6f (%d of %d operations)\n", "error_rate", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
