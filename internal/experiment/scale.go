package experiment

import (
	"fmt"
	"time"

	"repro/internal/deflect"
	"repro/internal/measure"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/udpsim"
	"repro/internal/xrand"
)

// ScaleConfig parameterises the datacenter-scale workload experiment:
// a generated fabric (fattree/clos/isp specs), a declared flow
// population driven by an arrival process, and optional mid-run link
// failures. Zero values take moderate defaults that finish in seconds;
// the benchmark's fattree28_flows workload (bench/) runs it at
// fattree:28 with 10^6 flows.
type ScaleConfig struct {
	// Topo is a topology.FromSpec generator spec (default "fattree:8").
	Topo string
	// Policy is the deflection policy name (default "nip").
	Policy string
	// Shards is the number of worker goroutines the world runs on
	// (default 1); the world is cut into two regions per worker.
	// Results are byte-identical for every value.
	Shards int
	// Flows is the logical flow population size (default 100_000).
	Flows int
	// Pairs is the number of distinct ordered src/dst host pairs the
	// population is spread over (default 64, drawn by seed).
	Pairs int
	// Rate is the mean per-flow packet rate in packets/s (default 5).
	Rate float64
	// Size is the packet wire size in bytes (default 256).
	Size int
	// Arrival names the arrival process: poisson (default) or onoff.
	Arrival string
	// FailLinks fails that many switch-to-switch links (chosen by
	// seed) for the middle fifth of the run, exercising deflection
	// under load.
	FailLinks int
	// Duration is the injection window; the world runs a further
	// 200 ms to drain in-flight packets (default 2 s).
	Duration time.Duration
	// Seed drives pair selection, per-pair arrival RNGs and switch
	// RNGs.
	Seed int64
	// Scalar runs the scalar data plane, the test oracle.
	Scalar bool
	// Metrics and Trace are the karsim collection points; labels are
	// derived from the workload alone — never from Shards or worker
	// count — so dumps are comparable across execution modes.
	Metrics *telemetry.Collector
	Trace   *trace.Collector
}

func (c ScaleConfig) defaults() ScaleConfig {
	if c.Topo == "" {
		c.Topo = "fattree:8"
	}
	if c.Policy == "" {
		c.Policy = "nip"
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Flows == 0 {
		c.Flows = 100_000
	}
	if c.Pairs == 0 {
		c.Pairs = 64
	}
	if c.Rate == 0 {
		c.Rate = 5
	}
	if c.Size == 0 {
		c.Size = 256
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	return c
}

// ScaleResult carries one scale run's outcome. Wall-clock fields
// (BuildWall, RunWall and the derived rates) depend on the hardware
// and never feed the metrics dump.
type ScaleResult struct {
	Topology  string
	Switches  int
	Hosts     int
	Links     int
	Shards    int
	Lookahead time.Duration
	Pairs     int
	Stats     udpsim.SetStats

	BuildWall time.Duration
	RunWall   time.Duration
}

// PacketsPerSec returns injected packets per wall-clock second.
func (r *ScaleResult) PacketsPerSec() float64 {
	if r.RunWall <= 0 {
		return 0
	}
	return float64(r.Stats.Sent) / r.RunWall.Seconds()
}

// HopsPerSec returns delivered-packet link hops per wall-clock second.
func (r *ScaleResult) HopsPerSec() float64 {
	if r.RunWall <= 0 {
		return 0
	}
	return float64(r.Stats.TotalHops) / r.RunWall.Seconds()
}

// Scale builds the generated fabric, spreads the flow population over
// seeded host pairs with installed routes, drives the arrival process
// for the configured duration plus a drain window, and returns the
// aggregate outcome.
func Scale(cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.defaults()
	g, err := topology.FromSpec(cfg.Topo)
	if err != nil {
		return nil, err
	}
	policy, err := PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	hosts := g.EdgeNodes()
	if len(hosts) < 2 {
		return nil, fmt.Errorf("experiment: scale: topology %s has %d hosts, need >= 2", cfg.Topo, len(hosts))
	}
	if maxPairs := len(hosts) * (len(hosts) - 1); cfg.Pairs > maxPairs {
		cfg.Pairs = maxPairs
	}

	arrival, err := udpsim.ParseArrival(cfg.Arrival)
	if err != nil {
		return nil, err
	}

	buildStart := time.Now()
	w, fs, recorder, err := newScaleWorld(g, policy, arrival, cfg)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	buildWall := time.Since(buildStart)

	fs.Start()
	runStart := time.Now()
	w.Run(cfg.Duration + 200*time.Millisecond)
	runWall := time.Since(runStart)

	res := &ScaleResult{
		Topology:  g.Name(),
		Switches:  len(g.CoreNodes()),
		Hosts:     len(hosts),
		Links:     len(g.Links()),
		Shards:    w.Net.Shards(),
		Lookahead: w.Net.Lookahead(),
		Pairs:     cfg.Pairs,
		Stats:     fs.Stats(),
		BuildWall: buildWall,
		RunWall:   runWall,
	}
	label := fmt.Sprintf("scale/%s/%s/flows=%d/pairs=%d/seed=%d",
		cfg.Topo, arrival, cfg.Flows, cfg.Pairs, cfg.Seed)
	cfg.Metrics.Add(label, w.Net.Metrics(), w.Net.Events())
	cfg.Trace.Commit(label, recorder)
	return res, nil
}

// newScaleWorld is Scale's set-up over g, cfg being defaulted and its
// Pairs no more than g's hosts allow: the world, its trace recorder
// (nil without cfg.Trace), the seeded pairs and their routes, the
// optional failures and the flow population, not yet started.
func newScaleWorld(g *topology.Graph, policy deflect.Policy, arrival udpsim.Arrival, cfg ScaleConfig) (*World, *udpsim.FlowSet, *trace.Recorder, error) {
	hosts := g.EdgeNodes()
	// Scale worlds install thousands of routes: the event log's default
	// capacity would evict, and eviction order is the one thing the
	// parallel lanes do not keep deterministic.
	w := NewWorld(g, policy, cfg.Seed, append(scalarPlane(cfg.Scalar),
		simnet.WithShards(cfg.Shards),
		simnet.WithEventCapacity(max(65536, 8*cfg.Pairs)),
	)...)
	recorder := cfg.Trace.Attach(w.Net)

	// Distinct ordered pairs, drawn by seed. The draw sequence — and
	// with it every route install and flow assignment — depends only
	// on (topology, seed).
	rng := xrand.New(cfg.Seed*1_000_003 + 17)
	seen := make(map[[2]int]bool, cfg.Pairs)
	var pairs []udpsim.Pair
	for len(pairs) < cfg.Pairs {
		a, b := rng.Intn(len(hosts)), rng.Intn(len(hosts))
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		src, dst := hosts[a].Name(), hosts[b].Name()
		if _, err := w.InstallRoute(src, dst, nil); err != nil {
			return nil, nil, nil, fmt.Errorf("experiment: scale: route %s->%s: %w", src, dst, err)
		}
		pairs = append(pairs, udpsim.Pair{Src: w.Edges[src], Dst: w.Edges[dst]})
	}

	// Optional failures: seeded switch-to-switch links go down for the
	// middle fifth of the injection window.
	if cfg.FailLinks > 0 {
		var fabric []int
		for i, l := range g.Links() {
			if l.A().Kind() == topology.KindCore && l.B().Kind() == topology.KindCore {
				fabric = append(fabric, i)
			}
		}
		links := g.Links()
		for i := 0; i < cfg.FailLinks && len(fabric) > 0; i++ {
			pick := fabric[rng.Intn(len(fabric))]
			w.Net.ScheduleFailure(links[pick], cfg.Duration*2/5, cfg.Duration/5)
		}
	}

	fs, err := udpsim.NewFlowSet(w.Net, pairs, udpsim.SetConfig{
		Name:    "scale",
		Flows:   cfg.Flows,
		Rate:    cfg.Rate,
		Size:    cfg.Size,
		Arrival: arrival,
		Seed:    cfg.Seed,
		Until:   cfg.Duration,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return w, fs, recorder, nil
}

// ScaleTable renders a scale run. Wall-clock rows vary with the
// hardware; everything above them is deterministic per seed.
func ScaleTable(r *ScaleResult) *measure.Table {
	tbl := &measure.Table{
		Title:   fmt.Sprintf("Datacenter-scale workload (%s)", r.Topology),
		Headers: []string{"quantity", "value"},
	}
	st := r.Stats
	tbl.AddRow("switches", fmt.Sprintf("%d", r.Switches))
	tbl.AddRow("hosts", fmt.Sprintf("%d", r.Hosts))
	tbl.AddRow("links", fmt.Sprintf("%d", r.Links))
	tbl.AddRow("shards", fmt.Sprintf("%d", r.Shards))
	tbl.AddRow("lookahead", r.Lookahead.String())
	tbl.AddRow("pairs", fmt.Sprintf("%d", r.Pairs))
	tbl.AddRow("flows", fmt.Sprintf("%d", st.Flows))
	tbl.AddRow("flows-active", fmt.Sprintf("%d", st.ActiveFlows))
	tbl.AddRow("flows-delivered", fmt.Sprintf("%d", st.DeliveredFlows))
	tbl.AddRow("packets-sent", fmt.Sprintf("%d", st.Sent))
	tbl.AddRow("packets-received", fmt.Sprintf("%d", st.Received))
	tbl.AddRow("delivery-ratio", fmt.Sprintf("%.6f", st.DeliveryRatio()))
	tbl.AddRow("hops-mean", fmt.Sprintf("%.3f", st.MeanHops()))
	tbl.AddRow("hops-range", fmt.Sprintf("[%d, %d]", st.MinHops, st.MaxHops))
	tbl.AddRow("build-wall", r.BuildWall.Round(time.Millisecond).String())
	tbl.AddRow("run-wall", r.RunWall.Round(time.Millisecond).String())
	tbl.AddRow("pkts/s-wall", fmt.Sprintf("%.0f", r.PacketsPerSec()))
	tbl.AddRow("hops/s-wall", fmt.Sprintf("%.0f", r.HopsPerSec()))
	return tbl
}

// scalarPlane is the world option a config's Scalar field stands for.
func scalarPlane(scalar bool) []any {
	if scalar {
		return []any{simnet.WithScalarDataPlane()}
	}
	return nil
}
