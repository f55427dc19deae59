package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/udpsim"
)

// ---------------------------------------------------------------------------
// net15_saturate

// saturateConfig is the healthy fast path: one CBR sender filling the
// AS1→AS3 path of Net15 under full protection, no failure.
type saturateConfig struct {
	virtual time.Duration
	flow    udpsim.Config
}

func saturateParams(toy bool) saturateConfig {
	c := saturateConfig{
		virtual: 10 * time.Second,
		flow:    udpsim.Config{Interval: time.Millisecond, Size: 250, Burst: 100},
	}
	if toy {
		c.virtual = 200 * time.Millisecond
	}
	return c
}

// saturatePhase is the sender's start offset: the one input of this
// workload the seed can move without changing which path is measured.
func saturatePhase(seed int64) time.Duration {
	return time.Duration(uint64(seed)*7919%1000) * time.Microsecond
}

var saturateFlow = packet.FlowID{Src: "AS1", Dst: "AS3"}

func repNet15Saturate(rc *repCtx) error {
	cfg := saturateParams(rc.toy)
	var g *topology.Graph
	var err error
	rc.call("topology.build", func() { g, err = topology.Net15() })
	if err != nil {
		return err
	}
	w, err := assemble(g, worldConfig{policy: "nip", seed: rc.seed, probe: rc.probe}, rc.tr, rc.root)
	if err != nil {
		return err
	}
	if rc.variant == variantRecorder {
		trace.NewRecorder(w.net, trace.Config{Rate: 0})
	}
	if _, err := w.installRoute("AS1", "AS3", topology.Net15FullProtection, rc.tr, rc.root); err != nil {
		return err
	}
	var send *udpsim.Sender
	var recv *udpsim.Receiver
	rc.call("udpsim.new_flowset", func() {
		send, recv = udpsim.NewFlow(w.net, w.edges["AS1"], w.edges["AS3"], saturateFlow, cfg.flow)
	})
	w.net.ClockOf(w.edges["AS1"].Node()).At(saturatePhase(rc.seed), send.Start)

	rc.timed(func() {
		rc.call("simnet.run_until", func() { w.net.RunUntil(cfg.virtual) })
	})

	var st udpsim.Stats
	rc.call("udpsim.stats", func() { st = recv.Stats(send) })
	counts := readCounts(w.net.Metrics())
	counts.extra["udp_sent"] = int64(st.Sent)
	counts.extra["udp_received"] = int64(st.Received)
	counts.extra["udp_total_hops"] = st.TotalHops
	rc.virtual["udpsim.delivery_ratio"] = st.DeliveryRatio()
	rc.virtual["udpsim.mean_hops"] = st.MeanHops()
	rc.finish(w.net.Metrics(), counts, w)
	return nil
}

// ---------------------------------------------------------------------------
// fattree28_flows

// flowsConfig is the large-world path: experiment.Scale's workload
// assembled from the layer constructors, at a rate the fabric carries
// without loss.
type flowsConfig struct {
	topo   string
	shards int
	flows  int
	pairs  int
	rate   float64
	size   int
	inject time.Duration
	drain  time.Duration
}

func flowsParams(toy bool) flowsConfig {
	c := flowsConfig{
		topo: "fattree:28", shards: 2, flows: 1_000_000, pairs: 256,
		rate: 1, size: 256, inject: 600 * time.Millisecond, drain: 200 * time.Millisecond,
	}
	if toy {
		c.topo, c.flows, c.pairs, c.rate, c.inject = "fattree:4", 10_000, 16, 5, 100*time.Millisecond
	}
	return c
}

// flowsWorld is one assembled fattree world with its flow population.
type flowsWorld struct {
	w  *world
	fs *udpsim.FlowSet
}

// buildFlows is experiment.Scale's set-up, call for call: the pair
// draw, route installs and FlowSet configuration are the ones Scale
// makes, so the same (topology, seed) gives the same simulation.
func buildFlows(cfg flowsConfig, seed int64, probe bool, recorder bool, tr *tracer, parent *openSpan) (*flowsWorld, error) {
	var g *topology.Graph
	var err error
	tr.call(parent, "topology.build", func() { g, err = topology.FromSpec(cfg.topo) })
	if err != nil {
		return nil, err
	}
	hosts := g.EdgeNodes()
	if maxPairs := len(hosts) * (len(hosts) - 1); cfg.pairs > maxPairs {
		cfg.pairs = maxPairs
	}
	w, err := assemble(g, worldConfig{
		policy: "nip", seed: seed, shards: cfg.shards,
		eventCap: max(65536, 8*cfg.pairs), probe: probe,
	}, tr, parent)
	if err != nil {
		return nil, err
	}
	if recorder {
		trace.NewRecorder(w.net, trace.Config{Rate: 0})
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	seen := make(map[[2]int]bool, cfg.pairs)
	var pairs []udpsim.Pair
	for len(pairs) < cfg.pairs {
		a, b := rng.Intn(len(hosts)), rng.Intn(len(hosts))
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		src, dst := hosts[a].Name(), hosts[b].Name()
		if _, err := w.installRoute(src, dst, nil, tr, parent); err != nil {
			return nil, fmt.Errorf("route %s->%s: %w", src, dst, err)
		}
		pairs = append(pairs, udpsim.Pair{Src: w.edges[src], Dst: w.edges[dst]})
	}
	var fs *udpsim.FlowSet
	tr.call(parent, "udpsim.new_flowset", func() {
		fs, err = udpsim.NewFlowSet(w.net, pairs, udpsim.SetConfig{
			Name: "scale", Flows: cfg.flows, Rate: cfg.rate, Size: cfg.size,
			Arrival: udpsim.ArrivalPoisson, Seed: seed, Until: cfg.inject,
		})
	})
	if err != nil {
		return nil, err
	}
	return &flowsWorld{w: w, fs: fs}, nil
}

func repFattreeFlows(rc *repCtx) error {
	cfg := flowsParams(rc.toy)
	if rc.variant == variantSerial {
		cfg.shards = 1
	}
	fw, err := buildFlows(cfg, rc.seed, rc.probe, rc.variant == variantRecorder, rc.tr, rc.root)
	if err != nil {
		return err
	}
	fw.fs.Start()

	rc.timed(func() {
		rc.call("simnet.run_until", func() { fw.w.net.RunUntil(cfg.inject + cfg.drain) })
	})

	var st udpsim.SetStats
	rc.call("udpsim.stats", func() { st = fw.fs.Stats() })
	if st.Sent != st.Received {
		return fmt.Errorf("flow set sent %d, received %d after the drain", st.Sent, st.Received)
	}
	counts := readCounts(fw.w.net.Metrics())
	counts.extra["flowset_sent"] = st.Sent
	counts.extra["flowset_received"] = st.Received
	counts.extra["flowset_total_hops"] = st.TotalHops
	counts.extra["flowset_active_flows"] = int64(st.ActiveFlows)
	rc.virtual["udpsim.delivery_ratio"] = st.DeliveryRatio()
	rc.virtual["udpsim.mean_hops"] = st.MeanHops()
	rc.finish(fw.w.net.Metrics(), counts, fw.w)
	return nil
}

// ---------------------------------------------------------------------------
// net15_tcp_failover

// fig5Params is one Fig. 5 sweep: 3 failed links × 3 protection levels
// × {avp, nip}, one TCP flow per cell, its link down for the whole run.
func fig5Params(seed int64, toy bool) experiment.Fig5Config {
	c := experiment.Fig5Config{
		Runs: 1, RunDuration: 6 * time.Second, WarmUp: time.Second,
		Seed: seed, Workers: 2,
		Policies:    []string{"avp", "nip"},
		Protections: []string{"unprotected", "partial", "full"},
		Failures:    [][2]string{{"SW10", "SW7"}, {"SW7", "SW13"}, {"SW13", "SW29"}},
	}
	if toy {
		c.RunDuration, c.WarmUp = 300*time.Millisecond, 100*time.Millisecond
	}
	return c
}

// fig5CellSeedStride is how experiment.Fig5 derives a cell's base seed
// from its row index; the traced rep uses it to run the cells one
// call at a time and still simulate exactly the one-call sweep.
const fig5CellSeedStride = 7_777_777

// fig5ReverseBudget mirrors experiment.Fig5's ACK-path bit budget.
var fig5ReverseBudget = map[string]int{"unprotected": 0, "partial": 28, "full": 43}

var fig5Protection = map[string][][2]string{
	"unprotected": nil,
	"partial":     topology.Net15PartialProtection,
	"full":        topology.Net15FullProtection,
}

// shadowFig5Cell builds, through the same public functions RunTCP
// uses, the world one Fig. 5 cell runs in: Net15, a world, the
// protected forward route, the budget-planned ACK route, the failure
// and the TCP endpoints. experiment.Fig5 builds its worlds inside the
// timed call, so this shadow is what set-up time can be read from.
func shadowFig5Cell(cell experiment.Fig5Config, tr *tracer, parent *openSpan) error {
	fail, prot, policy := cell.Failures[0], cell.Protections[0], cell.Policies[0]
	var g *topology.Graph
	var err error
	tr.call(parent, "topology.build", func() { g, err = topology.Net15() })
	if err != nil {
		return err
	}
	w, err := assemble(g, worldConfig{policy: policy, seed: cell.Seed}, tr, parent)
	if err != nil {
		return err
	}
	if _, err := w.installRoute("AS1", "AS3", fig5Protection[prot], tr, parent); err != nil {
		return err
	}
	var reverse []core.Hop
	if budget := fig5ReverseBudget[prot]; budget > 0 {
		path, err := topology.ShortestPath(g, "AS3", "AS1", nil)
		if err != nil {
			return err
		}
		if reverse, err = core.PlanProtection(g, path, core.PlanOptions{MaxBits: budget}); err != nil {
			return err
		}
	}
	if _, err := w.installRouteHops("AS3", "AS1", reverse, tr, parent); err != nil {
		return err
	}
	l, ok := g.LinkBetween(fail[0], fail[1])
	if !ok {
		return fmt.Errorf("no link %s-%s", fail[0], fail[1])
	}
	w.net.ScheduleFailure(l, 0, cell.RunDuration)
	tcpsim.NewFlow(w.net, w.edges["AS1"], w.edges["AS3"], saturateFlow, tcpsim.Config{MaxCwnd: 256})
	return nil
}

// fig5Cells splits a sweep into its cells, one single-cell config each,
// seeded as experiment.Fig5 seeds that row of the sweep.
func fig5Cells(cfg experiment.Fig5Config) []experiment.Fig5Config {
	var cells []experiment.Fig5Config
	for _, fail := range cfg.Failures {
		for _, prot := range cfg.Protections {
			for _, policy := range cfg.Policies {
				cell := cfg
				cell.Failures, cell.Protections, cell.Policies = [][2]string{fail}, []string{prot}, []string{policy}
				cell.Seed = cfg.Seed + int64(len(cells))*fig5CellSeedStride
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

func repFig5(rc *repCtx) error {
	cfg := fig5Params(rc.seed, rc.toy)
	cells := fig5Cells(cfg)
	for _, cell := range cells {
		if err := shadowFig5Cell(cell, rc.tr, rc.root); err != nil {
			return err
		}
	}

	coll := telemetry.NewCollector()
	cfg.Metrics = coll
	if rc.variant == variantRecorder {
		cfg.Trace = trace.NewCollector(trace.Config{Rate: 0})
	}
	var err error
	rc.timed(func() {
		if rc.tr == nil {
			_, err = experiment.Fig5(cfg)
			return
		}
		// Traced: one Fig5 call per cell, each under its own span; the
		// digest check holds the cells to the one-call sweep.
		for _, cell := range cells {
			cell.Metrics = coll
			rc.call("experiment.fig5_cell", func() {
				if _, cerr := experiment.Fig5(cell); cerr != nil && err == nil {
					err = cerr
				}
			})
		}
	})
	if err != nil {
		return err
	}
	reg := coll.Registry()
	counts := readCounts(reg)
	rc.virtual["tcpsim.goodput_mbps"] = float64(counts.tcpGoodputBytes) * 8 / 1e6 / (cfg.RunDuration.Seconds() * float64(len(cells)))
	rc.finish(reg, counts, nil)
	return nil
}

var simWorkloads = map[string]*simWorkload{
	"net15_saturate":     {name: "net15_saturate", rep: repNet15Saturate, kernelInputs: net15KernelInputs},
	"fattree28_flows":    {name: "fattree28_flows", rep: repFattreeFlows, sharded: true, drained: true, kernelInputs: fattreeKernelInputs},
	"net15_tcp_failover": {name: "net15_tcp_failover", rep: repFig5, shadowSetup: true, kernelInputs: net15KernelInputs},
}
