package main

import (
	"fmt"
	"sync"
	"time"

	"lorm/internal/core"
	"lorm/internal/discovery"
	"lorm/internal/emulate"
	"lorm/internal/resource"
	"lorm/internal/routing"
	"lorm/internal/sword"
	"lorm/internal/tracing"
	"lorm/internal/transport"
)

// The served deployment, as lormnode serve builds it with its defaults.
const (
	peers     = 256
	chordBits = 20
)

// fitDimension picks the smallest Cycloid dimension whose capacity d·2^d
// leaves headroom over the peer count; running far below capacity
// degenerates the cube-connected-cycles structure.
func fitDimension(nodes int) int {
	for d := 2; d <= 20; d++ {
		if d*(1<<uint(d)) >= nodes*2 {
			return d
		}
	}
	return 20
}

// newSchema is the served attribute schema, lormnode serve's default.
func newSchema() (*resource.Schema, error) {
	attrs := make([]resource.Attribute, len(domains))
	for i, d := range domains {
		attrs[i] = resource.Attribute{Name: d.name, Min: d.min, Max: d.max}
	}
	return resource.NewSchema(attrs...)
}

// newSystem builds the named system over the peer set lormnode serve uses.
func newSystem(name string) (discovery.System, error) {
	schema, err := newSchema()
	if err != nil {
		return nil, err
	}
	addrs := make([]string, peers)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("peer-%04d", i)
	}
	switch name {
	case "lorm":
		sys, err := core.New(core.Config{D: fitDimension(peers), Schema: schema})
		if err != nil {
			return nil, err
		}
		return sys, sys.AddNodes(addrs)
	case "sword":
		sys, err := sword.New(sword.Config{Bits: chordBits, Schema: schema})
		if err != nil {
			return nil, err
		}
		return sys, sys.AddNodes(addrs)
	}
	return nil, fmt.Errorf("unknown system %q", name)
}

// stack is one served gateway with the driver's connections to it.
type stack struct {
	sys     discovery.System // the raw deployment
	srv     *transport.Server
	clients []*transport.Client
	layers  *layerTimes // nil in a plain run
}

// buildStack assembles the gateway the way lormnode serve does — system,
// tracer at sample rate 0, WAN emulation, TCP server on a free loopback
// port — prefills it through discovery.System.Register and dials conns
// pipelined connections. A traced stack puts timing wrappers around the
// served system on both sides of the emulation layer.
func buildStack(w workload, prefill []resource.Info, conns int, seed int64, traced bool) (*stack, error) {
	sys, err := newSystem(w.system)
	if err != nil {
		return nil, err
	}
	tracer := tracing.New(tracing.Config{Seed: seed, SampleRate: 0})
	if f := sys.(routing.Instrumented).RoutingFabric(); f != nil {
		f.Observe(tracer)
	}
	for _, info := range prefill {
		if _, err := sys.Register(info); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	st := &stack{sys: sys}
	inner := sys
	if traced {
		st.layers = &layerTimes{}
		inner = &timedSystem{System: sys, reg: &st.layers.discoveryRegister, disc: &st.layers.discoveryDiscover}
	}
	served := emulate.WithHopLatency(inner, w.hopLatency)
	if traced {
		served = &timedSystem{System: served, reg: &st.layers.servedRegister, disc: &st.layers.servedDiscover}
	}
	st.srv, err = transport.NewServer(served, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < conns; i++ {
		c, err := transport.DialOptions(st.srv.Addr(), transport.Options{})
		if err == nil {
			err = c.Ping()
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("dial gateway: %w", err)
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

func (st *stack) close() {
	for _, c := range st.clients {
		c.Close()
	}
	st.srv.Close()
}

// directoryTotal sums every node's directory size.
func (st *stack) directoryTotal() (total, max int) {
	for _, n := range st.sys.DirectorySizes() {
		total += n
		if n > max {
			max = n
		}
	}
	return total, max
}

// durations collects wall times in microseconds from concurrent callers.
type durations struct {
	mu sync.Mutex
	us []float64
}

func (d *durations) add(v time.Duration) {
	d.mu.Lock()
	d.us = append(d.us, float64(v)/float64(time.Microsecond))
	d.mu.Unlock()
}

func (d *durations) snapshot() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.us...)
}

// layerTimes holds what the timing wrappers of a traced stack record:
// calls into the discovery system itself (inside emulate) and into the
// served system (outside emulate), per verb.
type layerTimes struct {
	discoveryRegister, discoveryDiscover durations
	servedRegister, servedDiscover       durations
}

// timedSystem records the wall time of every Register and Discover call
// into the wrapped system. It keeps the routing fabric visible so the
// server still attaches its metrics observer.
type timedSystem struct {
	discovery.System
	reg, disc *durations
}

func (t *timedSystem) Register(info resource.Info) (discovery.Cost, error) {
	start := time.Now()
	cost, err := t.System.Register(info)
	t.reg.add(time.Since(start))
	return cost, err
}

func (t *timedSystem) Discover(q resource.Query) (*discovery.Result, error) {
	start := time.Now()
	res, err := t.System.Discover(q)
	t.disc.add(time.Since(start))
	return res, err
}

// RoutingFabric exposes the wrapped system's fabric; nil when it has none.
func (t *timedSystem) RoutingFabric() *routing.Fabric {
	if inst, ok := t.System.(routing.Instrumented); ok {
		return inst.RoutingFabric()
	}
	return nil
}
