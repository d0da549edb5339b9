package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"lorm/internal/resource"
	"lorm/internal/transport"
)

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{4, 1, 3, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.75, 3},
		{[]float64{4, 1, 3, 2}, 0.76, 4},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.99, 100},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9, 90},
	} {
		if got := quantile(tc.xs, tc.p); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
}

func TestTailQuantileIgnoresOnePart(t *testing.T) {
	var xs []float64
	for part := 0; part < tailParts; part++ {
		for i := 1; i <= 100; i++ {
			x := float64(i)
			if part == 1 {
				x *= 50 // a stall in the middle part only
			}
			xs = append(xs, x)
		}
	}
	if got := tailQuantile(xs, 0.99); got != 99 {
		t.Errorf("tailQuantile p99 = %v, want 99 from the two unstalled parts", got)
	}
	if got := quantile(xs, 0.99); got != 4850 {
		t.Errorf("pooled p99 = %v, want 4850", got)
	}
	if xs[0] != 1 || xs[len(xs)-1] != 100 {
		t.Error("quantiles reordered their input")
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)", kind, i, g.Name, g.Unit, d.name, d.unit)
			}
			if !validName.MatchString(d.name) || !validUnit.MatchString(d.unit) {
				t.Errorf("%s: invalid name or unit %q %q", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s: metric %s named twice", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer(), b.PerLayer)
	for i, e := range b.EndToEnd {
		if want := map[bool]string{true: "higher", false: "lower"}[endToEnd[i].higher]; e.Better != want {
			t.Errorf("end_to_end %s: better %q, want %q", e.Name, e.Better, want)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestCheckerFlagsCorruptedAnswer(t *testing.T) {
	q := transport.BatchQuery{Subs: []resource.SubQuery{
		{Attr: "cpu", Low: 1000, High: 2000},
		{Attr: "mem", Low: 100, High: 200},
	}}
	matches := []resource.Info{
		{Attr: "cpu", Value: 1500, Owner: "site-a"},
		{Attr: "cpu", Value: 1600, Owner: "site-b"},
		{Attr: "mem", Value: 150, Owner: "site-a"},
		{Attr: "mem", Value: 160, Owner: "site-c"},
	}
	owners := []string{"site-a"}
	if err := checkAnswer(q, owners, matches); err != nil {
		t.Fatalf("correct answer flagged: %v", err)
	}
	want := answer{owners: owners, matches: sortMatches(matches)}
	reordered := []resource.Info{matches[3], matches[1], matches[0], matches[2]}
	if err := checkExact(want, owners, reordered); err != nil {
		t.Fatalf("reordered correct answer flagged: %v", err)
	}

	withMatch := func(i int, m resource.Info) []resource.Info {
		out := append([]resource.Info(nil), matches...)
		out[i] = m
		return out
	}
	for name, c := range map[string]struct {
		owners  []string
		matches []resource.Info
	}{
		"match out of range":      {owners, withMatch(1, resource.Info{Attr: "cpu", Value: 2500, Owner: "site-b"})},
		"match on other attr":     {owners, withMatch(1, resource.Info{Attr: "disk", Value: 10, Owner: "site-b"})},
		"owner without all attrs": {[]string{"site-a", "site-b"}, matches},
		"joined owner missing":    {nil, matches},
		"owners unsorted":         {[]string{"site-c", "site-a"}, withMatch(1, resource.Info{Attr: "cpu", Value: 1600, Owner: "site-c"})},
	} {
		if err := checkAnswer(q, c.owners, c.matches); err == nil {
			t.Errorf("%s: checkAnswer accepted a corrupted answer", name)
		}
	}
	for name, m := range map[string][]resource.Info{
		"dropped match":    matches[:3],
		"duplicated match": append(append([]resource.Info(nil), matches...), matches[0]),
		"changed value":    withMatch(0, resource.Info{Attr: "cpu", Value: 1500.5, Owner: "site-a"}),
		"changed owner":    withMatch(1, resource.Info{Attr: "cpu", Value: 1600, Owner: "site-d"}),
	} {
		if err := checkExact(want, owners, m); err == nil {
			t.Errorf("%s: checkExact accepted a corrupted answer", name)
		}
	}
}

// TestStackMatchesLormnodeServe holds the served stack to lormnode serve's
// construction: the same defaults and helpers, and the same order of
// system, tracer, WAN emulation and server.
func TestStackMatchesLormnodeServe(t *testing.T) {
	fset := token.NewFileSet()
	serve, err := parser.ParseFile(fset, "../cmd/lormnode/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := parser.ParseFile(fset, "stack.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := funcSource(t, fset, serve, "fitDimension"), funcSource(t, fset, ours, "fitDimension"); a != b {
		t.Errorf("fitDimension differs from lormnode's:\n%s\nvs\n%s", b, a)
	}
	cmd := funcSource(t, fset, serve, "cmdServe")
	var spec []string
	for _, d := range domains {
		spec = append(spec, fmt.Sprintf("%s:%g:%g", d.name, d.min, d.max))
	}
	for _, flagDef := range []string{
		`fs.Uint("bits", 20,`,
		`fs.Int("nodes", 256,`,
		`fs.String("attrs", "` + strings.Join(spec, ",") + `",`,
		`fs.Float64("trace-sample", 0,`,
	} {
		if !strings.Contains(cmd, flagDef) {
			t.Errorf("lormnode serve no longer declares %s ...; update the benchmark's stack", flagDef)
		}
	}
	if peers != 256 || chordBits != 20 {
		t.Errorf("peers %d, chord bits %d: want lormnode's defaults 256 and 20", peers, chordBits)
	}
	last := -1
	for _, call := range []string{"buildSystem(", "tracing.New(", ".Observe(tracer)", "emulate.WithHopLatency(sys,", "transport.NewServer(served,"} {
		i := strings.Index(cmd, call)
		if i < 0 || i < last {
			t.Errorf("lormnode serve does not call %s after the previous construction step", call)
		}
		last = i
	}
	if !strings.Contains(funcSource(t, fset, serve, "buildSystem"), `fmt.Sprintf("peer-%04d", i)`) {
		t.Error("lormnode names its peers differently")
	}

	// The built stack serves what lormnode would: the schema, the peer
	// count, the tracer's counters and the emulation wrapper.
	w := workloads[0]
	prefill := prefillInfos(w, 1)[:500]
	st, err := buildStack(w, prefill, 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	stats, err := st.clients[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.System != w.system || stats.Nodes != peers || stats.Attributes != len(domains) || stats.TotalPieces != len(prefill) {
		t.Errorf("stats %+v: want %s over %d peers, %d attributes, %d pieces", stats, w.system, peers, len(domains), len(prefill))
	}
	if stats.Metrics == nil || stats.Metrics.SpansDropped < uint64(len(prefill)) {
		t.Errorf("tracer at sample rate 0 not observing the fabric: digest %+v", stats.Metrics)
	}
	// The final-store check agrees with the oracle over the true store
	// and flags a store that lost pieces.
	if bad, first, err := verify(w, 1, st, prefill); err != nil || bad != 0 {
		t.Errorf("verify over the true store: %d failures (%v), err %v", bad, first, err)
	}
	if bad, _, err := verify(w, 1, st, prefill[:len(prefill)/2]); err != nil || bad == 0 {
		t.Errorf("verify accepted answers from a store the oracle lacks half of (err %v)", err)
	}

	served := &st.layers.servedDiscover
	seen := len(served.snapshot())
	_, _, cost, err := st.clients[0].Discover(newGen(w, 1, streamVerify).query().Subs, "req-00")
	if err != nil {
		t.Fatal(err)
	}
	times := served.snapshot()
	if len(times) != seen+1 {
		t.Fatalf("the served wrapper saw %d more discovers, want 1", len(times)-seen)
	}
	newest := times[len(times)-1]
	if wan := time.Duration(cost.Messages) * w.hopLatency; w.hopLatency == 0 || newest < float64(wan/time.Microsecond) {
		t.Errorf("discover served in %.0fµs, want at least %d messages × %v of emulated WAN", newest, cost.Messages, w.hopLatency)
	}
}

// funcSource prints the named top-level function of f.
func funcSource(t *testing.T, fset *token.FileSet, f *ast.File, name string) string {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name && fd.Recv == nil {
			var b strings.Builder
			if err := printer.Fprint(&b, fset, fd.Body); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
	}
	t.Fatalf("no function %s", name)
	return ""
}

func TestGCPausesCoverPhase(t *testing.T) {
	before := takeProbe()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	after := takeProbe()
	pauses := gcPauses(before, after)
	if len(pauses) < 3 || len(pauses) != int(after.mem.NumGC-before.mem.NumGC) {
		t.Fatalf("%d pauses for %d GC cycles", len(pauses), after.mem.NumGC-before.mem.NumGC)
	}
	for _, us := range pauses {
		if us <= 0 {
			t.Errorf("pause of %vµs", us)
		}
	}
}

func TestRecorderInflightPeak(t *testing.T) {
	r := &recorder{}
	r.enter()
	r.enter()
	r.leave()
	r.enter()
	r.enter()
	r.leave()
	r.leave()
	r.leave()
	if got := r.peak.Load(); got != 3 {
		t.Errorf("peak %d, want 3", got)
	}
	if got := r.inflight.Load(); got != 0 {
		t.Errorf("%d calls outstanding after all left", got)
	}
}
