package udpsim_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/edge"
	"repro/internal/experiment"
	"repro/internal/packet"
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
		if dropped := w.Net.Metrics().SumCounter("kar_net_drops_total"); st.Sent != st.Received+dropped {
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

// TestFlowSetSeqSpillsPast255: a pair's sent counts are one byte per
// flow until one of them reaches 255, and four bytes per flow after;
// its delivered bits stay whole words of its own.
// Six flows at a high rate on two pairs whose sources sit on different
// lanes (shards=2) pass 255 on both lanes; every flow's delivered
// sequence numbers must be exactly 0…n−1 and Stats must equal a plain
// uint32 count per flow.
func TestFlowSetSeqSpillsPast255(t *testing.T) {
	const shards, flows = 2, 6
	g, err := topology.FromSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	policy, _ := deflect.ByName("nip")
	w := experiment.NewWorld(g, policy, 11, simnet.WithShards(shards))
	hosts := g.EdgeNodes()
	a, b := hosts[0], hosts[len(hosts)-1]
	if lanes := topology.PartitionRegions(g, 2*shards); lanes[a.Index()] == lanes[b.Index()] {
		t.Fatalf("%s and %s share lane %d", a.Name(), b.Name(), lanes[a.Index()])
	}
	pairs := []udpsim.Pair{
		{Src: w.Edges[a.Name()], Dst: w.Edges[b.Name()]},
		{Src: w.Edges[b.Name()], Dst: w.Edges[a.Name()]},
	}
	for _, p := range pairs {
		if _, err := w.InstallRoute(p.Src.Node().Name(), p.Dst.Node().Name(), nil); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := udpsim.NewFlowSet(w.Net, pairs, udpsim.SetConfig{
		Name: "t", Flows: flows, Rate: 2000, Size: 100, Seed: 5, Until: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each destination's lane appends to its own flows' lists only.
	seqs := make([][]uint64, flows)
	for _, p := range pairs {
		inner := fs.ReceiverOf(p.Dst.Node().Name())
		p.Dst.AttachDefault(edge.ReceiverFunc(func(pkt *packet.Packet) {
			seqs[pkt.Flow.ID] = append(seqs[pkt.Flow.ID], pkt.Seq)
			inner.Deliver(pkt)
		}))
	}
	fs.Start()
	w.Run(500 * time.Millisecond)

	var ref udpsim.SetStats
	sent := make([]uint32, flows)
	for id, got := range seqs {
		sent[id] = uint32(len(got))
		slices.Sort(got)
		for i, s := range got {
			if s != uint64(i) {
				t.Fatalf("flow %d: delivered seq %d at rank %d; want 0…%d", id, s, i, len(got)-1)
			}
		}
		if sent[id] > 0 {
			ref.ActiveFlows++
			ref.DeliveredFlows++
		}
		ref.Sent += int64(sent[id])
	}
	for half, ids := range [][]uint32{sent[:flows/2], sent[flows/2:]} {
		if slices.Max(ids) <= 255 {
			t.Errorf("pair %d: no flow passed 255 packets (counts %v)", half, ids)
		}
	}
	// Both pairs widened: four sent bytes per flow, and each pair's
	// delivered bits in a word of its own.
	if got, want := fs.CounterBytes(), 4*flows+8*bitWords(flows, len(pairs)); got != want {
		t.Errorf("per-flow counters take %d bytes, want %d", got, want)
	}
	st := fs.Stats()
	if st.Sent != ref.Sent || st.Received != ref.Sent || st.ActiveFlows != ref.ActiveFlows ||
		st.DeliveredFlows != ref.DeliveredFlows || st.NoRoute != 0 {
		t.Errorf("Stats = %+v; reference model: sent %d (all delivered), active %d, delivered %d",
			st, ref.Sent, ref.ActiveFlows, ref.DeliveredFlows)
	}
}

// TestFlowSetCounterBytes: while no flow has sent 255 packets, a flow's
// counters are a one-byte sent count and a delivered bit, each pair's
// bits rounded up to whole words.
func TestFlowSetCounterBytes(t *testing.T) {
	const flows = 10_000
	w := closWorld(t)
	pairs := allPairs(w)
	fs, err := udpsim.NewFlowSet(w.Net, pairs, udpsim.SetConfig{Flows: flows, Rate: 5, Size: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := flows + 8*bitWords(flows, len(pairs))
	if got := fs.CounterBytes(); got != want {
		t.Errorf("per-flow counters of a new set take %d bytes, want %d", got, want)
	}
	fs.Start()
	w.Run(500 * time.Millisecond)
	if st := fs.Stats(); st.ActiveFlows == 0 || st.DeliveredFlows == 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	if got := fs.CounterBytes(); got != want {
		t.Errorf("per-flow counters after the run take %d bytes, want %d", got, want)
	}
}

// bitWords is the number of delivered-bit words of flows split over
// pairs as NewFlowSet splits them: one word per started 64 flows of
// each pair.
func bitWords(flows, pairs int) int {
	words := 0
	for i := range pairs {
		n := flows / pairs
		if i < flows%pairs {
			n++
		}
		words += (n + 63) / 64
	}
	return words
}

// TestFlowSetDeliveredBitsAcrossLanes: receivers on different lanes set
// delivered bits in one array. Ten pairs of 96 or 97 flows — no pair a
// whole number of words — whose destinations alternate over four
// lanes (shards=2), so adjacent pairs' bits are written in the same
// parallel windows by different workers; four receivers end two or
// three pairs each. Under -race (check.sh), a pair range that did not
// start on a word of its own shows as a race; everywhere, after the
// network drains, DeliveredFlows must equal the flows a per-flow model
// saw delivered, and a short, sparse run leaves some flows without a
// packet so that the count tells set bits from unset ones.
func TestFlowSetDeliveredBitsAcrossLanes(t *testing.T) {
	const shards, flows, nPairs = 2, 965, 10
	g, err := topology.FromSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	policy, _ := deflect.ByName("nip")
	w := experiment.NewWorld(g, policy, 11, simnet.WithShards(shards))
	hosts := g.EdgeNodes()
	lanes := topology.PartitionRegions(g, 2*shards)
	// One destination per lane, each sent to from the host half the
	// host list away; the pairs cycle through them.
	var dsts, srcs []*topology.Node
	seen := make(map[int]bool)
	for i, h := range hosts {
		if l := lanes[h.Index()]; !seen[l] {
			seen[l] = true
			dsts, srcs = append(dsts, h), append(srcs, hosts[(i+len(hosts)/2)%len(hosts)])
		}
	}
	if len(dsts) != 2*shards {
		t.Fatalf("hosts sit on %d lanes, want %d", len(dsts), 2*shards)
	}
	for i, dst := range dsts {
		if _, err := w.InstallRoute(srcs[i].Name(), dst.Name(), nil); err != nil {
			t.Fatal(err)
		}
	}
	var pairs []udpsim.Pair
	for i := range nPairs {
		j := i % len(dsts)
		pairs = append(pairs, udpsim.Pair{Src: w.Edges[srcs[j].Name()], Dst: w.Edges[dsts[j].Name()]})
	}
	fs, err := udpsim.NewFlowSet(w.Net, pairs, udpsim.SetConfig{
		Name: "t", Flows: flows, Rate: 40, Size: 100, Seed: 13, Until: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]bool, flows) // one byte per flow: the model's writes never share a byte
	for _, dst := range dsts {
		inner := fs.ReceiverOf(dst.Name())
		w.Edges[dst.Name()].AttachDefault(edge.ReceiverFunc(func(pkt *packet.Packet) {
			got[pkt.Flow.ID] = true
			inner.Deliver(pkt)
		}))
	}
	fs.Start()
	w.Run(100 * time.Millisecond)
	if w.Net.Lookahead() <= 0 {
		t.Fatal("sharded world has no cut links: no window ran in parallel")
	}
	want := 0
	for _, ok := range got {
		if ok {
			want++
		}
	}
	st := fs.Stats()
	if st.Received != st.Sent || st.NoRoute != 0 {
		t.Fatalf("not drained: %+v", st)
	}
	if want == 0 || want == flows {
		t.Fatalf("model saw %d of %d flows delivered; the run must leave some flows without a packet", want, flows)
	}
	if st.DeliveredFlows != want || st.ActiveFlows != want {
		t.Errorf("DeliveredFlows %d, ActiveFlows %d; the per-flow model saw %d", st.DeliveredFlows, st.ActiveFlows, want)
	}
}
