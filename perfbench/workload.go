package main

import (
	"fmt"
	"math/rand"
	"time"

	"lorm/internal/resource"
	"lorm/internal/transport"
)

// opKind is one of the two gateway operations a workload issues.
type opKind int

const (
	opQuery opKind = iota
	opAnnounce
)

// workload is one traffic mix. An open-loop workload (rate > 0) issues
// singular verbs on a fixed timetable; a closed-loop workload keeps
// inflight register batches outstanding and runs a singular query probe
// beside them, so every workload reports the latency of both operations.
type workload struct {
	name string

	system     string // served discovery system: "lorm" or "sword"
	prefill    int    // pieces registered in-process before the timed phase
	hopLatency time.Duration

	// Open loop.
	rate         float64 // operations per second
	announceFrac float64

	// Closed loop.
	frameSize int
	inflight  int
	// announcesPerSecond fixes the count of announces a closed loop
	// issues: this many per measured second, whatever the speed, so two
	// commits end with the same store.
	announcesPerSecond int
	probeRate          float64 // singular probe queries per second
}

func (w workload) openLoop() bool { return w.rate > 0 }

// workloads lists the benchmark's traffic mixes; the package comment says
// why each exists.
var workloads = []workload{
	{
		name:         "wan-mix",
		system:       "lorm",
		prefill:      20000,
		hopLatency:   time.Millisecond,
		rate:         1000,
		announceFrac: 0.3,
	},
	{
		name:               "cpu-announce",
		system:             "sword",
		prefill:            300000,
		frameSize:          8,
		inflight:           8,
		announcesPerSecond: 30000,
		probeRate:          200,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// attrDomain is one attribute of the served schema with the uniform range
// its values are drawn from; the schema is lormnode serve's default -attrs.
type attrDomain struct {
	name     string
	min, max float64
}

var domains = []attrDomain{
	{"cpu", 100, 3200},
	{"mem", 0, 8192},
	{"disk", 1, 2000},
}

// Queries cover two attributes, as lormcluster's do.
var queryDomains = domains[:2]

const (
	ownerPool     = 2000 // sites owning the pieces; shared owners make joins non-empty
	requesterPool = 64
	// matchesPerSub sizes range queries: the expected number of prefilled
	// pieces each of a query's two sub-queries matches.
	matchesPerSub = 15
)

// gen draws a workload's inputs. All of them come from the seed, so the
// same seed gives the same prefill, announces and queries.
type gen struct {
	w workload
	r *rand.Rand
}

func newGen(w workload, seed int64, stream int64) *gen {
	return &gen{w: w, r: rand.New(rand.NewSource(seed*1_000_003 + stream))}
}

func (g *gen) owner() string { return fmt.Sprintf("site-%04d", g.r.Intn(ownerPool)) }

// anyInfo draws one piece of a uniformly chosen attribute, its value
// uniform over the attribute's domain, as lormcluster's genFrame does.
func (g *gen) anyInfo() resource.Info {
	d := domains[g.r.Intn(len(domains))]
	return resource.Info{Attr: d.name, Value: d.min + g.r.Float64()*(d.max-d.min), Owner: g.owner()}
}

// query draws a two-attribute range query whose sub-queries each match
// about matchesPerSub of the prefilled pieces.
func (g *gen) query() transport.BatchQuery {
	perAttr := float64(g.w.prefill) / float64(len(domains))
	frac := matchesPerSub / perAttr
	subs := make([]resource.SubQuery, len(queryDomains))
	for i, d := range queryDomains {
		width := frac * (d.max - d.min)
		lo := d.min + g.r.Float64()*(d.max-d.min-width)
		subs[i] = resource.SubQuery{Attr: d.name, Low: lo, High: lo + width}
	}
	return transport.BatchQuery{Subs: subs, Requester: fmt.Sprintf("req-%02d", g.r.Intn(requesterPool))}
}

// Input streams; each has its own generator so one stream's length never
// shifts another's draws.
const (
	streamPrefill = iota + 1
	streamVerify
	streamOpen
	streamAnnounce
	streamProbe
)

func prefillInfos(w workload, seed int64) []resource.Info {
	g := newGen(w, seed, streamPrefill)
	infos := make([]resource.Info, w.prefill)
	for i := range infos {
		infos[i] = g.anyInfo()
	}
	return infos
}

// announceInfos is a closed loop's fixed list of announces for a phase of
// about d.
func announceInfos(w workload, seed int64, d time.Duration) []resource.Info {
	n := int(float64(w.announcesPerSecond) * d.Seconds())
	n -= n % w.frameSize
	g := newGen(w, seed, streamAnnounce)
	infos := make([]resource.Info, n)
	for i := range infos {
		infos[i] = g.anyInfo()
	}
	return infos
}

// verifyQueries is how many queries check the final store against the
// oracle.
const verifyQueries = 64

func verifyPool(w workload, seed int64) []transport.BatchQuery {
	g := newGen(w, seed, streamVerify)
	pool := make([]transport.BatchQuery, verifyQueries)
	for i := range pool {
		pool[i] = g.query()
	}
	return pool
}

// timedOp is one operation of an open-loop timetable.
type timedOp struct {
	kind  opKind
	info  resource.Info        // announce
	query transport.BatchQuery // query
}

// mixOp draws wan-mix's next operation.
func (g *gen) mixOp() timedOp {
	if g.r.Float64() < g.w.announceFrac {
		return timedOp{kind: opAnnounce, info: g.anyInfo()}
	}
	return timedOp{kind: opQuery, query: g.query()}
}

// probeOp draws the next query of a closed-loop workload's probe.
func (g *gen) probeOp() timedOp { return timedOp{kind: opQuery, query: g.query()} }
