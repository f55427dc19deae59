package udpsim_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/experiment"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// closWorld builds a leaf-spine world with routes installed between
// every ordered host pair.
func closWorld(t *testing.T, opts ...any) *experiment.World {
	t.Helper()
	g, err := topology.FromSpec("clos:4:2")
	if err != nil {
		t.Fatal(err)
	}
	policy, ok := deflect.ByName("nip")
	if !ok {
		t.Fatal("policy nip missing")
	}
	w := experiment.NewWorld(g, policy, 11, opts...)
	for _, a := range g.EdgeNodes() {
		for _, b := range g.EdgeNodes() {
			if a == b {
				continue
			}
			if _, err := w.InstallRoute(a.Name(), b.Name(), nil); err != nil {
				t.Fatalf("InstallRoute %s->%s: %v", a.Name(), b.Name(), err)
			}
		}
	}
	return w
}

func allPairs(w *experiment.World) []udpsim.Pair {
	var pairs []udpsim.Pair
	for _, a := range w.Net.Topology().EdgeNodes() {
		for _, b := range w.Net.Topology().EdgeNodes() {
			if a != b {
				pairs = append(pairs, udpsim.Pair{Src: w.Edges[a.Name()], Dst: w.Edges[b.Name()]})
			}
		}
	}
	return pairs
}

// runSet drives one flow-set world and returns (stats, metrics dump).
func runSet(t *testing.T, cfg udpsim.SetConfig, opts ...any) (udpsim.SetStats, string) {
	t.Helper()
	w := closWorld(t, opts...)
	fs, err := udpsim.NewFlowSet(w.Net, allPairs(w), cfg)
	if err != nil {
		t.Fatalf("NewFlowSet: %v", err)
	}
	fs.Start()
	w.Run(2 * time.Second)
	var buf bytes.Buffer
	if err := w.Net.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return fs.Stats(), buf.String()
}

// TestFlowSetPoissonDelivery: a 10k-flow Poisson population over a
// healthy fabric delivers everything that was injected by the time the
// network drains.
func TestFlowSetPoissonDelivery(t *testing.T) {
	// 100-byte packets: the population should stress flow-state
	// bookkeeping, not the fabric's queues.
	cfg := udpsim.SetConfig{
		Name: "t", Flows: 10_000, Rate: 10, Size: 100, Seed: 3, Until: time.Second,
	}
	st, _ := runSet(t, cfg)
	if st.Sent == 0 {
		t.Fatal("no packets sent")
	}
	// ~10k flows * 10 pps * 1 s = ~100k arrivals; allow wide slack,
	// the point is that the aggregate process has the right scale.
	if st.Sent < 50_000 || st.Sent > 200_000 {
		t.Errorf("sent = %d, want ~100k", st.Sent)
	}
	if st.Received != st.Sent {
		t.Errorf("received %d of %d on a healthy fabric", st.Received, st.Sent)
	}
	if st.NoRoute != 0 {
		t.Errorf("noroute = %d, want 0", st.NoRoute)
	}
	if st.ActiveFlows == 0 || st.DeliveredFlows != st.ActiveFlows {
		t.Errorf("active %d delivered %d", st.ActiveFlows, st.DeliveredFlows)
	}
	// Leaf-spine: every inter-host path is host->leaf->spine->leaf->host.
	if st.MinHops < 2 || st.MaxHops > 6 {
		t.Errorf("hops [%d, %d] outside leaf-spine bounds", st.MinHops, st.MaxHops)
	}
}

// TestFlowSetOnOffDelivery: the burst process also drains cleanly and
// emits bursts (more packets than distinct arrivals would give).
func TestFlowSetOnOffDelivery(t *testing.T) {
	cfg := udpsim.SetConfig{
		Name: "t", Flows: 5_000, Rate: 10, Arrival: udpsim.ArrivalOnOff,
		BurstMean: 8, Seed: 5, Until: 500 * time.Millisecond,
	}
	st, _ := runSet(t, cfg)
	if st.Sent == 0 {
		t.Fatal("no packets sent")
	}
	if st.Received != st.Sent {
		t.Errorf("received %d of %d on a healthy fabric", st.Received, st.Sent)
	}
}

// TestFlowSetDeterminism: the same config produces byte-identical
// metric dumps on rebuilds, across the scalar/batched data planes, and
// across shard counts — the property TestDeterminismMatrix enforces on the
// full scale experiment. The dump carries the series whose hot-path
// cells are split per lane, per pump and per receiver, so this is also
// the telemetry-identity matrix for the lane-owned folds.
func TestFlowSetDeterminism(t *testing.T) {
	cfg := udpsim.SetConfig{
		Name: "t", Flows: 2_000, Rate: 50, Seed: 9, Until: 300 * time.Millisecond,
	}
	stA, dumpA := runSet(t, cfg)
	for _, series := range []string{
		"kar_flowset_hops_bucket{", "kar_flowset_latency_us_sum{",
		"kar_flowset_sent_total{", "kar_flowset_received_total{",
		"kar_link_sent_packets_total{", "kar_link_sent_bytes_total{",
		"kar_net_delivered_total{", "kar_net_sends_total{",
	} {
		if !strings.Contains(dumpA, "\n"+series) {
			t.Errorf("reference dump lacks series %s", series)
		}
	}
	variants := map[string][]any{
		"rebuild": nil,
		"scalar":  {simnet.WithScalarDataPlane()},
		"shards2": {simnet.WithShards(2)},
		"shards3": {simnet.WithShards(3)},
		"shards4": {simnet.WithShards(4)},
		"shards2-scalar": {
			simnet.WithShards(2), simnet.WithScalarDataPlane(),
		},
		"shards4-scalar": {
			simnet.WithShards(4), simnet.WithScalarDataPlane(),
		},
	}
	for name, opts := range variants {
		stB, dumpB := runSet(t, cfg, opts...)
		if stA != stB {
			t.Errorf("%s: stats diverge:\n  base: %+v\n  %s: %+v", name, stA, name, stB)
		}
		if dumpA != dumpB {
			t.Errorf("%s: metric dumps diverge (len %d vs %d)", name, len(dumpA), len(dumpB))
		}
	}
}

// TestFlowSetConfigErrors: degenerate populations fail loudly.
func TestFlowSetConfigErrors(t *testing.T) {
	w := closWorld(t)
	if _, err := udpsim.NewFlowSet(w.Net, nil, udpsim.SetConfig{Flows: 10}); err == nil {
		t.Error("no pairs: want error")
	}
	if _, err := udpsim.NewFlowSet(w.Net, allPairs(w), udpsim.SetConfig{Flows: 2}); err == nil {
		t.Error("fewer flows than pairs: want error")
	}
	if _, err := udpsim.ParseArrival("bursty"); err == nil {
		t.Error("ParseArrival: want error for unknown name")
	}
}

// TestFlowSetWindowDropsRaceFree forces tail drops inside parallel
// shard windows: an overloaded fat-tree at shards=2 (four lanes) fills
// queues on every lane, so Network.Drop — and the flush hook of every
// timer dispatch — runs on worker goroutines while other lanes append
// to their own dirty lists. Under -race (check.sh) this is the regression
// gate for the mid-window flush guard; everywhere it checks that drops
// and the per-lane deferred cells add up to the 1-shard run's numbers.
func TestFlowSetWindowDropsRaceFree(t *testing.T) {
	run := func(shards int) (udpsim.SetStats, int64) {
		g, err := topology.FromSpec("fattree:4")
		if err != nil {
			t.Fatalf("FromSpec: %v", err)
		}
		policy, _ := deflect.ByName("nip")
		w := experiment.NewWorld(g, policy, 11, simnet.WithShards(shards))
		hosts := g.EdgeNodes()
		var pairs []udpsim.Pair
		for i, a := range hosts {
			b := hosts[(i+len(hosts)/2)%len(hosts)]
			if _, err := w.InstallRoute(a.Name(), b.Name(), nil); err != nil {
				t.Fatalf("InstallRoute %s->%s: %v", a.Name(), b.Name(), err)
			}
			pairs = append(pairs, udpsim.Pair{Src: w.Edges[a.Name()], Dst: w.Edges[b.Name()]})
		}
		fs, err := udpsim.NewFlowSet(w.Net, pairs, udpsim.SetConfig{
			Name: "t", Flows: 200_000, Rate: 5, Seed: 3, Until: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewFlowSet: %v", err)
		}
		fs.Start()
		w.Run(300 * time.Millisecond)
		if shards > 1 && w.Net.Lookahead() <= 0 {
			t.Fatal("sharded world has no cut links: no window ran in parallel")
		}
		st := fs.Stats()
		if dropped := w.Net.Dropped(); st.Sent != st.Received+dropped {
			t.Errorf("shards=%d: sent %d != received %d + dropped %d", shards, st.Sent, st.Received, dropped)
		}
		return st, w.Net.Metrics().Counter("kar_net_drops_total", "reason", "queue-full").Value()
	}
	ref, refFull := run(1)
	if refFull == 0 {
		t.Fatal("no queue-full drops: the load does not overflow any queue")
	}
	if st, full := run(2); st != ref || full != refFull {
		t.Errorf("shards=2 diverges from shards=1:\n  1: %+v queue-full %d\n  2: %+v queue-full %d", ref, refFull, st, full)
	}
}
