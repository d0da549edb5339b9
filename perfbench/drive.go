package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lorm/internal/discovery"
	"lorm/internal/resource"
	"lorm/internal/transport"
)

// maxOpenInflight bounds an open loop's outstanding operations. Reaching
// it stalls the generator, which then shows as lag.
const maxOpenInflight = 1024

// recorder accumulates one timed phase's outcomes from concurrent callers.
type recorder struct {
	mu sync.Mutex

	latency [2][]float64 // ms per opKind: from scheduled arrival (open loop) or per frame
	calls   []float64    // µs inside each client call
	lag     []float64    // ms from a call being due, or its worker free, to its send
	openLag []float64    // the open-loop part of lag
	busy    time.Duration

	// Client calls outstanding, and the most that were at once: each
	// is one request in a connection's pipeline.
	inflight, peak atomic.Int64

	attempted, failed int
	done              [2]int // successful operations per kind
	cost              [2]discovery.Cost
	firstErr          error
	acked             []resource.Info // announces the gateway acknowledged
}

// sched says when a call was due: at its scheduled arrival in an open
// loop, which its latency then counts from, or when its closed-loop worker
// became free.
type sched struct {
	due  time.Time
	open bool
}

// outcome is one call's result, assembled before the recorder's lock is
// taken so answer checks run in parallel.
type outcome struct {
	kind      opKind
	n, failed int
	done      int
	cost      discovery.Cost
	acked     []resource.Info
	err       error
}

func (o *outcome) fail(n int, err error) {
	o.failed += n
	if o.err == nil {
		o.err = err
	}
}

// record adds one call of o.n operations.
func (r *recorder) record(o outcome, s sched, sent, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	from := sent
	if s.open {
		from = s.due
		r.openLag = append(r.openLag, ms(sent.Sub(s.due)))
	}
	r.latency[o.kind] = append(r.latency[o.kind], ms(end.Sub(from)))
	r.calls = append(r.calls, float64(end.Sub(sent))/float64(time.Microsecond))
	r.lag = append(r.lag, ms(sent.Sub(s.due)))
	r.busy += end.Sub(sent)
	r.attempted += o.n
	r.failed += o.failed
	r.done[o.kind] += o.done
	r.cost[o.kind].Add(o.cost)
	r.acked = append(r.acked, o.acked...)
	if r.firstErr == nil {
		r.firstErr = o.err
	}
}

// enter counts a client call as outstanding until leave.
func (r *recorder) enter() {
	n := r.inflight.Add(1)
	for p := r.peak.Load(); n > p && !r.peak.CompareAndSwap(p, n); p = r.peak.Load() {
	}
}

func (r *recorder) leave() { r.inflight.Add(-1) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// query issues one query, checks its answer and returns when the call
// ended.
func (r *recorder) query(c *transport.Client, q transport.BatchQuery, s sched) time.Time {
	r.enter()
	sent := time.Now()
	owners, matches, cost, err := c.Discover(q.Subs, q.Requester)
	end := time.Now()
	r.leave()
	o := outcome{kind: opQuery, n: 1}
	if err == nil {
		err = checkAnswer(q, owners, matches)
	}
	if err != nil {
		o.fail(1, fmt.Errorf("query %v: %w", q.Subs, err))
	} else {
		o.done = 1
		o.cost = cost
	}
	r.record(o, s, sent, end)
	return end
}

// announce issues one frame of announces (one without a batch verb) and
// returns when the call ended.
func (r *recorder) announce(c *transport.Client, infos []resource.Info, batch bool, s sched) time.Time {
	r.enter()
	sent := time.Now()
	var results []transport.BatchResult
	var err error
	if batch {
		results, err = c.RegisterBatch(infos)
	} else {
		var br transport.BatchResult
		br.Cost, err = c.Register(infos[0])
		br.OK = err == nil
		results = []transport.BatchResult{br}
	}
	end := time.Now()
	r.leave()
	o := outcome{kind: opAnnounce, n: len(infos)}
	if err != nil {
		o.fail(len(infos), fmt.Errorf("register: %w", err))
		results = nil
	}
	for i, res := range results {
		if !res.OK {
			o.fail(1, fmt.Errorf("register: %s", res.Error))
			continue
		}
		o.done++
		o.cost.Add(res.Cost)
		o.acked = append(o.acked, infos[i])
	}
	r.record(o, s, sent, end)
	return end
}

// openLoop issues singular operations on a fixed timetable, one every
// 1/rate seconds, until n have been issued (n > 0) or stop closes. Each
// is timed from its scheduled arrival, not from its send, so a stall
// charges every operation it delays.
func openLoop(st *stack, rate float64, n int, stop <-chan struct{}, next func() timedOp, rec *recorder) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxOpenInflight)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; n <= 0 || i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		select {
		case <-stop:
			wg.Wait()
			return
		default:
		}
		op := next()
		sem <- struct{}{}
		c := st.clients[i%len(st.clients)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s := sched{due: due, open: true}
			if op.kind == opAnnounce {
				rec.announce(c, []resource.Info{op.info}, false, s)
			} else {
				rec.query(c, op.query, s)
			}
		}()
	}
	wg.Wait()
}

// closedLoop keeps w.inflight register batches outstanding over the
// stack's connections, each worker sending its next frame when the
// previous one returns, until the fixed list of announces is exhausted. A
// probe of singular queries runs beside it at w.probeRate.
func closedLoop(w workload, st *stack, announces []resource.Info, seed int64, rec *recorder) {
	stop := make(chan struct{})
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		g := newGen(w, seed, streamProbe)
		openLoop(st, w.probeRate, 0, stop, g.probeOp, rec)
	}()

	var next atomic.Int64 // announce frames claimed
	var wg sync.WaitGroup
	for k := 0; k < w.inflight; k++ {
		c := st.clients[k%len(st.clients)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for {
				f := int(next.Add(1) - 1)
				if (f+1)*w.frameSize > len(announces) {
					return
				}
				free = rec.announce(c, announces[f*w.frameSize:(f+1)*w.frameSize], true, sched{due: free})
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-probeDone
}
