package main

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/edge"
	"repro/internal/kswitch"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// world is a KAR network assembled from the layer constructors, one
// span per call, in exactly the order and with exactly the options
// experiment.NewWorld uses — the equivalence tests hold it to that.
type world struct {
	net      *simnet.Network
	ctrl     *controller.Controller
	switches map[string]*kswitch.Switch
	edges    map[string]*edge.Edge
	probes   []*probe // traced runs only
}

type worldConfig struct {
	policy   string
	seed     int64
	shards   int
	eventCap int
	// probe re-binds every node behind a counting, sampling wrapper.
	probe bool
}

func assemble(g *topology.Graph, cfg worldConfig, tr *tracer, parent *openSpan) (*world, error) {
	policy, ok := deflect.ByName(cfg.policy)
	if !ok {
		return nil, fmt.Errorf("unknown deflection policy %q", cfg.policy)
	}
	netOpts := []simnet.Option{simnet.WithMetricLabels("policy", policy.Name())}
	if cfg.shards > 1 {
		netOpts = append(netOpts, simnet.WithShards(cfg.shards))
	}
	if cfg.eventCap > 0 {
		netOpts = append(netOpts, simnet.WithEventCapacity(cfg.eventCap))
	}
	w := &world{}
	tr.call(parent, "simnet.new", func() { w.net = simnet.New(g, netOpts...) })
	tr.call(parent, "controller.new", func() {
		w.ctrl = controller.New(g,
			controller.WithTelemetry(w.net.Metrics(), w.net.Events()),
			controller.WithWorkers(0))
	})
	tr.call(parent, "kswitch.install_all", func() {
		w.switches = kswitch.InstallAll(w.net, policy, cfg.seed)
	})
	tr.call(parent, "edge.new", func() {
		w.edges = make(map[string]*edge.Edge, len(g.EdgeNodes()))
		for _, n := range g.EdgeNodes() {
			w.edges[n.Name()] = edge.New(w.net, n, w.ctrl, edge.WithReencodeDelay(edge.DefaultReencodeDelay))
		}
	})
	if cfg.probe {
		for _, s := range w.switches {
			p := &probe{sw: s}
			w.probes = append(w.probes, p)
			w.net.Bind(s.Node(), switchProbe{p})
		}
		for _, e := range w.edges {
			p := &probe{edge: e}
			w.probes = append(w.probes, p)
			w.net.Bind(e.Node(), edgeProbe{p})
		}
	}
	return w, nil
}

// installRoute is experiment.World.InstallRoute through the layers:
// the controller computes and encodes, the ingress edge is programmed.
func (w *world) installRoute(src, dst string, protection [][2]string, tr *tracer, parent *openSpan) (*core.Route, error) {
	hops, err := core.HopsFromPairs(w.net.Topology(), protection)
	if err != nil {
		return nil, err
	}
	return w.installRouteHops(src, dst, hops, tr, parent)
}

func (w *world) installRouteHops(src, dst string, hops []core.Hop, tr *tracer, parent *openSpan) (*core.Route, error) {
	var route *core.Route
	var err error
	tr.call(parent, "controller.install_route", func() {
		route, err = w.ctrl.InstallRoute(src, dst, hops)
	})
	if err != nil {
		return nil, err
	}
	e, ok := w.edges[src]
	if !ok {
		return nil, fmt.Errorf("no edge %q in world", src)
	}
	tr.call(parent, "edge.install_route", func() {
		var port int
		if port, err = w.ctrl.IngressPort(route); err == nil {
			e.InstallRouteWithBaseline(dst, route.ID, port, len(route.Path.Nodes)-1)
		}
	})
	return route, err
}

// probe counts one node's handler calls and times one in 64 of them.
// A node belongs to one scheduler lane, so its probe is only ever
// touched by one goroutine at a time; totals are read after the run.
type probe struct {
	sw   *kswitch.Switch
	edge *edge.Edge

	calls   int64
	batched int64
	timed   int64
	ns      int64
}

const probeEvery = 64

// switchProbe implements simnet.BatchHandler so trains keep taking
// the batched path through it.
type switchProbe struct{ p *probe }

func (s switchProbe) HandlePacket(pkt *packet.Packet, inPort int) {
	p := s.p
	p.calls++
	if p.calls%probeEvery != 0 {
		p.sw.HandlePacket(pkt, inPort)
		return
	}
	t0 := nanotime()
	p.sw.HandlePacket(pkt, inPort)
	p.ns += nanotime() - t0
	p.timed++
}

func (s switchProbe) BatchReducer() (rns.Reducer, bool) { return s.p.sw.BatchReducer() }

func (s switchProbe) HandleBatchPacket(pkt *packet.Packet, inPort int, residue uint16) {
	p := s.p
	p.calls++
	p.batched++
	if p.calls%probeEvery != 0 {
		p.sw.HandleBatchPacket(pkt, inPort, residue)
		return
	}
	t0 := nanotime()
	p.sw.HandleBatchPacket(pkt, inPort, residue)
	p.ns += nanotime() - t0
	p.timed++
}

type edgeProbe struct{ p *probe }

func (e edgeProbe) HandlePacket(pkt *packet.Packet, inPort int) {
	p := e.p
	p.calls++
	if p.calls%probeEvery != 0 {
		p.edge.HandlePacket(pkt, inPort)
		return
	}
	t0 := nanotime()
	p.edge.HandlePacket(pkt, inPort)
	p.ns += nanotime() - t0
	p.timed++
}

// probeTotals sums a world's probes by node kind; ns is the sampled
// handler time extrapolated to every call.
type probeTotals struct {
	switchCalls, switchBatched, edgeCalls int64
	switchNS, edgeNS                      float64
}

func (w *world) probeTotals() probeTotals {
	var t probeTotals
	for _, p := range w.probes {
		est := 0.0
		if p.timed > 0 {
			est = max(float64(p.ns)/float64(p.timed)-clockCost, 0) * float64(p.calls)
		}
		if p.sw != nil {
			t.switchCalls += p.calls
			t.switchBatched += p.batched
			t.switchNS += est
		} else {
			t.edgeCalls += p.calls
			t.edgeNS += est
		}
	}
	return t
}

var epoch = time.Now()

// nanotime is a monotonic clock reading in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// clockCost is what one timed sample pays for its own two clock
// readings, measured once and taken off every sample.
var clockCost = func() float64 {
	var deltas []float64
	for i := 0; i < 1001; i++ {
		t0 := nanotime()
		deltas = append(deltas, float64(nanotime()-t0))
	}
	return median(deltas)
}()
