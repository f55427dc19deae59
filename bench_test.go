// Benchmarks regenerating every table and figure of the paper's
// evaluation (§3), plus microbenchmarks of the mechanisms and
// ablations of the design choices called out in DESIGN.md.
//
// The figure benchmarks run scaled-down but structurally identical
// experiments per iteration (short virtual durations, few repeats);
// `cmd/karsim` runs the full-fidelity versions with the paper's
// parameters. Reported custom metrics carry the experiment's headline
// result so `go test -bench` output doubles as a results summary.
package kar

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/udpsim"
)

// ---------------------------------------------------------------------------
// Microbenchmarks: the KAR mechanisms themselves.

// BenchmarkCRTEncodeSmall measures route-ID encoding for the paper's
// partial-protection basis (native uint64 path).
func BenchmarkCRTEncodeSmall(b *testing.B) {
	sys, err := rns.NewSystem([]uint64{10, 7, 13, 29, 11, 19, 27})
	if err != nil {
		b.Fatal(err)
	}
	residues := []uint64{0, 2, 1, 0, 0, 1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Encode(residues); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRTEncodeWide measures encoding with M ≥ 2^64 (math/big
// path) — long full-protection sets.
func BenchmarkCRTEncodeWide(b *testing.B) {
	moduli := []uint64{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67}
	sys, err := rns.NewSystem(moduli)
	if err != nil {
		b.Fatal(err)
	}
	residues := make([]uint64, len(moduli))
	for i, m := range moduli {
		residues[i] = uint64(i) % m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Encode(residues); err != nil {
			b.Fatal(err)
		}
	}
}

// forwardIDs builds 8 distinct ≤43-bit route IDs. Benchmarks index
// them per iteration so the modulo argument is never loop-invariant —
// a constant argument lets the compiler hoist the entire reduction out
// of the loop and the benchmark measures nothing.
func forwardIDs() [8]rns.RouteID {
	var ids [8]rns.RouteID
	for i := range ids {
		ids[i] = rns.RouteIDFromUint64(4402485597509 + uint64(i)*977)
	}
	return ids
}

// wideForwardIDs builds 8 distinct >64-bit route IDs on the 16-prime
// full-protection basis.
func wideForwardIDs(b *testing.B) [8]rns.RouteID {
	moduli := []uint64{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67}
	sys, err := rns.NewSystem(moduli)
	if err != nil {
		b.Fatal(err)
	}
	var ids [8]rns.RouteID
	residues := make([]uint64, len(moduli))
	for i := range ids {
		for j, m := range moduli {
			residues[j] = uint64(i+j) % m
		}
		id, err := sys.Encode(residues)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// benchSwitchID and benchWideSwitchID are deliberately variables, not
// constants: a compile-time-constant modulus lets the compiler
// strength-reduce % into multiplies, which no running switch (whose ID
// arrives from the topology at runtime) gets to do. Keeping them in
// package scope makes the division baselines measure the DIV
// instruction the pre-reducer data plane actually executed.
var (
	benchSwitchID     uint64 = 29
	benchWideSwitchID uint64 = 67
)

// BenchmarkForwardModulo measures the entire per-packet data plane of
// a running switch: the small/wide dispatch plus one precomputed
// reduction, exactly the construct kswitch inlines into its packet
// loop (view.Forward). The division baseline below inlines the same
// way, so the two benchmarks compare like with like.
func BenchmarkForwardModulo(b *testing.B) {
	red := rns.NewReducer(benchSwitchID)
	ids := forwardIDs()
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if u, ok := ids[i&7].Uint64(); ok {
			sink += int(red.Mod64(u))
		} else {
			sink += core.ForwardReduced(red, ids[i&7])
		}
	}
	if sink < 0 {
		b.Fatal("impossible sink")
	}
}

// BenchmarkForwardModuloDiv is the ablation baseline: the same
// forwarding computed with the pre-reducer division path
// (core.Forward), for direct comparison against BenchmarkForwardModulo.
func BenchmarkForwardModuloDiv(b *testing.B) {
	ids := forwardIDs()
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += core.Forward(ids[i&7], benchSwitchID)
	}
	if sink < 0 {
		b.Fatal("impossible sink")
	}
}

// BenchmarkForwardModuloWide measures forwarding with >64-bit route
// IDs (math/big residues) through the precomputed reducer.
func BenchmarkForwardModuloWide(b *testing.B) {
	red := rns.NewReducer(benchWideSwitchID)
	ids := wideForwardIDs(b)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += core.ForwardReduced(red, ids[i&7])
	}
	if sink < 0 {
		b.Fatal("impossible sink")
	}
}

// BenchmarkForwardModuloWideDiv is the wide-path division baseline.
func BenchmarkForwardModuloWideDiv(b *testing.B) {
	ids := wideForwardIDs(b)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += core.Forward(ids[i&7], benchWideSwitchID)
	}
	if sink < 0 {
		b.Fatal("impossible sink")
	}
}

// benchDtreeSwitchID is a runtime variable like benchSwitchID: the
// dtree decision benchmarks must pay the same non-constant reduction
// the data plane does.
var benchDtreeSwitchID uint64 = 7

// benchView is a fixed 8-port switch state for the dtree decision
// benchmarks: ports 2 and 5 down, port 6 edge-facing. Its modulus 7
// keeps every residue inside the port span, so which arm runs is
// chosen by the benchmark, not by residue overflow.
type benchView struct{ red rns.Reducer }

func (benchView) SwitchID() uint64 { return benchDtreeSwitchID }
func (v benchView) Forward(r rns.RouteID) int {
	if u, ok := r.Uint64(); ok {
		return int(v.red.Mod64(u))
	}
	return core.ForwardReduced(v.red, r)
}
func (benchView) NumPorts() int       { return 8 }
func (benchView) PortUp(i int) bool   { return i != 2 && i != 5 }
func (benchView) EdgePort(i int) bool { return i == 6 }

// dtreeIDs builds 8 distinct route IDs that all reduce to the same
// residue mod benchDtreeSwitchID, so an arm's branch outcome is fixed
// while the reduction argument still varies per iteration (a constant
// argument would let the compiler hoist the whole call).
func dtreeIDs(residue uint64) [8]rns.RouteID {
	var ids [8]rns.RouteID
	for i := range ids {
		ids[i] = rns.RouteIDFromUint64(residue + benchDtreeSwitchID*(629875+uint64(i)*977))
	}
	return ids
}

// BenchmarkForwardDtree measures the structured-failover decision on
// both of its arms: "onpath" is the common case (encoded port healthy,
// identical predicate to NIP, what the batched fast path runs per
// train), "fallback" forces the encoded port down so every call pays
// the deterministic circular scan with edge-port skipping. Neither arm
// may allocate or touch an RNG (Decide is passed nil).
func BenchmarkForwardDtree(b *testing.B) {
	// Box the view once: the switch holds its SwitchView for its whole
	// lifetime, so per-call interface conversion would charge the
	// benchmark an allocation the data plane never pays.
	var view deflect.SwitchView = benchView{red: rns.NewReducer(benchDtreeSwitchID)}
	run := func(b *testing.B, ids [8]rns.RouteID, inPort int, deflected bool, wantDeflect bool) {
		sink := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := deflect.DTree{}.Decide(view, ids[i&7], inPort, deflected, nil)
			if d.Drop || d.Deflected != wantDeflect {
				b.Fatalf("arm mis-set: decision %+v", d)
			}
			sink += d.Port
		}
		if sink < 0 {
			b.Fatal("impossible sink")
		}
	}
	// Residue 3: port 3 is up and not the input port — taken directly.
	b.Run("onpath", func(b *testing.B) { run(b, dtreeIDs(3), 1, false, false) })
	// Residue 2: port 2 is down — the anchored scan (skipping the down
	// ports, the input port and the edge port) resolves every call.
	b.Run("fallback", func(b *testing.B) { run(b, dtreeIDs(2), 1, true, true) })
}

// BenchmarkSchedulerSteadyState measures one schedule+dispatch cycle
// against a pre-warmed event heap: the zero-allocation core loop of
// every simulation.
func BenchmarkSchedulerSteadyState(b *testing.B) {
	var s simnet.Scheduler
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	for s.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		s.Step()
	}
}

// BenchmarkShortestPath measures one steady-state Dijkstra on a
// 64-core random topology — the controller's reroute inner loop
// (typed 4-ary heap, pooled scratch arrays, reused result buffer).
func BenchmarkShortestPath(b *testing.B) {
	g, err := topology.Generate(topology.GenConfig{Cores: 64, ExtraLinks: 128, Edges: 24, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	edges := g.EdgeNodes()
	src, dst := edges[0].Name(), edges[len(edges)-1].Name()
	var buf []*topology.Node
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = topology.AppendShortestPath(buf[:0], g, src, dst, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRouteCached measures re-encoding the Net15
// partial-protection route through an Encoder with a warm basis cache
// — the controller's reroute encode path.
func BenchmarkEncodeRouteCached(b *testing.B) {
	g, err := topology.Net15()
	if err != nil {
		b.Fatal(err)
	}
	path, err := topology.ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		b.Fatal(err)
	}
	hops, err := core.HopsFromPairs(g, topology.Net15PartialProtection)
	if err != nil {
		b.Fatal(err)
	}
	enc := core.NewEncoder()
	if _, err := enc.EncodeRoute(path, hops); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeRoute(path, hops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRouteUncached is the ablation baseline for
// BenchmarkEncodeRouteCached: every encode revalidates the basis and
// rebuilds the CRT constants.
func BenchmarkEncodeRouteUncached(b *testing.B) {
	g, err := topology.Net15()
	if err != nil {
		b.Fatal(err)
	}
	path, err := topology.ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		b.Fatal(err)
	}
	hops, err := core.HopsFromPairs(g, topology.Net15PartialProtection)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EncodeRoute(path, hops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReinstallAfterFailure measures one failure/repair reaction
// cycle on a 64-switch topology with 552 installed routes: the
// controller recomputes only routes crossing the failed link (then
// only detoured ones on repair) instead of the whole table. The
// recompute savings are asserted by TestIncrementalRerouteSavings;
// this benchmark prices the cycle.
func BenchmarkReinstallAfterFailure(b *testing.B) {
	g, err := topology.Generate(topology.GenConfig{Cores: 64, ExtraLinks: 128, Edges: 24, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	ctrl := controller.New(g, controller.WithFailureReaction())
	edges := g.EdgeNodes()
	routes := 0
	for _, src := range edges {
		for _, dst := range edges {
			if src == dst {
				continue
			}
			if _, err := ctrl.InstallRoute(src.Name(), dst.Name(), nil); err != nil {
				b.Fatal(err)
			}
			routes++
		}
	}
	if routes < 500 {
		b.Fatalf("installed %d routes, want >= 500", routes)
	}
	r, ok := ctrl.Route(edges[0].Name(), edges[len(edges)-1].Name())
	if !ok {
		b.Fatal("route not installed")
	}
	links := r.Path.Links()
	link := links[len(links)/2]
	b.ReportMetric(float64(routes), "routes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctrl.NotifyFailure(link); err != nil {
			b.Fatal(err)
		}
		if err := ctrl.NotifyRepair(link); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeaderCodec measures the shim header marshal+unmarshal
// round trip for a full-protection route ID.
func BenchmarkHeaderCodec(b *testing.B) {
	h := packet.Header{Version: 1, TTL: 64, RouteID: rns.RouteIDFromUint64(4402485597509)}
	buf := make([]byte, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := h.Marshal(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		var got packet.Header
		if _, err := got.Unmarshal(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeaderMarshalPooled measures a marshal round trip through
// the packet.Buffer pool — the allocation-free encap path.
func BenchmarkHeaderMarshalPooled(b *testing.B) {
	h := packet.Header{Version: 1, TTL: 64, RouteID: rns.RouteIDFromUint64(4402485597509)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := packet.GetBuffer()
		out, err := h.Marshal(buf.B)
		if err != nil {
			b.Fatal(err)
		}
		buf.B = out
		buf.Put()
	}
}

// BenchmarkSwitchPipeline measures simulated forwarding throughput:
// packets per second through the full edge→core→edge pipeline on the
// Fig. 1 network.
func BenchmarkSwitchPipeline(b *testing.B) {
	g, err := topology.Fig1()
	if err != nil {
		b.Fatal(err)
	}
	policy, _ := PolicyByName("nip")
	w := experiment.NewWorld(g, policy, 1)
	if _, err := w.InstallRoute("S", "D", nil); err != nil {
		b.Fatal(err)
	}
	flow := packet.FlowID{Src: "S", Dst: "D"}
	delivered := 0
	w.Edges["D"].Attach(flow, edgeCounter{&delivered})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := packet.Get()
		p.Flow = flow
		p.Kind = packet.KindData
		p.Seq = uint64(i)
		p.Size = 1500
		if err := w.Edges["S"].Inject(p); err != nil {
			b.Fatal(err)
		}
		// Drain so queues never overflow: virtual time is free.
		w.Net.Scheduler().RunUntil(time.Duration(i+1) * time.Millisecond)
	}
	// Drain the tail (the last packets are still in flight).
	w.Net.Scheduler().RunUntil(time.Duration(b.N+100) * time.Millisecond)
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkSwitchPipelineTraced is BenchmarkSwitchPipeline with a
// flight recorder attached at sampling rate 0: the observability
// overhead Fig. 5-scale runs pay for unsampled traffic. It must report
// 0 allocs/op and throughput indistinguishable from the untraced
// pipeline (the recorder costs one bool test per hook).
func BenchmarkSwitchPipelineTraced(b *testing.B) {
	g, err := topology.Fig1()
	if err != nil {
		b.Fatal(err)
	}
	policy, _ := PolicyByName("nip")
	w := experiment.NewWorld(g, policy, 1)
	trace.NewRecorder(w.Net, trace.Config{Rate: 0})
	if _, err := w.InstallRoute("S", "D", nil); err != nil {
		b.Fatal(err)
	}
	flow := packet.FlowID{Src: "S", Dst: "D"}
	delivered := 0
	w.Edges["D"].Attach(flow, edgeCounter{&delivered})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := packet.Get()
		p.Flow = flow
		p.Kind = packet.KindData
		p.Seq = uint64(i)
		p.Size = 1500
		if err := w.Edges["S"].Inject(p); err != nil {
			b.Fatal(err)
		}
		w.Net.Scheduler().RunUntil(time.Duration(i+1) * time.Millisecond)
	}
	w.Net.Scheduler().RunUntil(time.Duration(b.N+100) * time.Millisecond)
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

type edgeCounter struct{ n *int }

func (c edgeCounter) Deliver(p *packet.Packet) {
	*c.n++
	p.Release()
}

// ---------------------------------------------------------------------------
// Table and figure benchmarks.

// BenchmarkTable1EncodingSize regenerates Table 1 per iteration and
// reports the full-protection bit length as a custom metric.
func BenchmarkTable1EncodingSize(b *testing.B) {
	var bits int
	for i := 0; i < b.N; i++ {
		tbl, err := experiment.Table1()
		if err != nil {
			b.Fatal(err)
		}
		bits = len(tbl.Rows)
		if tbl.Rows[2][1] != "43" {
			b.Fatalf("full protection bits = %s, want 43", tbl.Rows[2][1])
		}
	}
	b.ReportMetric(43, "fullprot-bits")
	_ = bits
}

// BenchmarkFig4ThroughputTimeline runs a compressed Fig. 4 (NIP
// timeline with a mid-run failure) per iteration and reports the
// during-failure goodput.
func BenchmarkFig4ThroughputTimeline(b *testing.B) {
	var during float64
	for i := 0; i < b.N; i++ {
		series, err := experiment.Fig4(experiment.Fig4Config{
			PreFailure: 4 * time.Second,
			FailureFor: 4 * time.Second,
			PostRepair: 2 * time.Second,
			Seed:       int64(i),
			Policies:   []string{"nip"},
		})
		if err != nil {
			b.Fatal(err)
		}
		during = series[0].DuringMbps
	}
	b.ReportMetric(during, "nip-during-Mbps")
}

// BenchmarkFig5ProtectionSweep runs a one-repeat Fig. 5 sweep per
// iteration (all 18 cells) and reports the full/NIP mean.
func BenchmarkFig5ProtectionSweep(b *testing.B) {
	var fullNip float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig5(experiment.Fig5Config{
			Runs: 1, RunDuration: 3 * time.Second, WarmUp: time.Second,
			Seed: int64(i), Workers: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Protection == "full" && r.Policy == "nip" && r.Failure == "SW7-SW13" {
				fullNip = r.Goodput.Mean
			}
		}
	}
	b.ReportMetric(fullNip, "full-nip-Mbps")
}

// BenchmarkFig7RNPFailureSweep runs a one-repeat Fig. 7 sweep per
// iteration and reports the worst-case drop percentage.
func BenchmarkFig7RNPFailureSweep(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig7(experiment.RepeatConfig{
			Runs: 1, RunDuration: 4 * time.Second, WarmUp: time.Second,
			Seed: int64(i), Workers: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.DropPct > worst {
				worst = r.DropPct
			}
		}
	}
	b.ReportMetric(worst, "worst-drop-pct")
}

// BenchmarkFig8RedundantPath runs a one-repeat Fig. 8 per iteration
// and reports the with-failure/nominal throughput ratio.
func BenchmarkFig8RedundantPath(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig8(experiment.RepeatConfig{
			Runs: 1, RunDuration: 4 * time.Second, WarmUp: time.Second,
			Seed: int64(i), Workers: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.RatioPct
	}
	b.ReportMetric(ratio, "ratio-pct")
}

// BenchmarkTable2StateComparison runs the stateless-vs-stateful
// comparison per iteration and reports the baseline's per-switch
// state.
func BenchmarkTable2StateComparison(b *testing.B) {
	var entries int
	for i := 0; i < b.N; i++ {
		row, err := experiment.Table2Quantitative()
		if err != nil {
			b.Fatal(err)
		}
		entries = row.TableEntriesPerSW
	}
	b.ReportMetric(float64(entries), "table-entries-per-sw")
}

// BenchmarkCoverageAnalysis runs the full closed-form walk analysis
// (both topologies, NIP) per iteration.
func BenchmarkCoverageAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Coverage([]string{"nip"}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations.

// BenchmarkAblationProtectionBudget sweeps the §2.3 bit budget on the
// Net15 route and reports planned protection hops per budget — the
// partial-protection trade-off of DESIGN.md.
func BenchmarkAblationProtectionBudget(b *testing.B) {
	g, err := topology.Net15()
	if err != nil {
		b.Fatal(err)
	}
	path, err := topology.ShortestPath(g, "AS1", "AS3", nil)
	if err != nil {
		b.Fatal(err)
	}
	budgets := []int{15, 20, 28, 36, 43, 64}
	var last int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, budget := range budgets {
			hops, err := core.PlanProtection(g, path, core.PlanOptions{MaxBits: budget})
			if err != nil {
				b.Fatal(err)
			}
			last = len(hops)
		}
	}
	b.ReportMetric(float64(last), "hops-at-64-bits")
}

// BenchmarkAblationDeflectionPolicies compares delivered fraction and
// mean path stretch per policy on a CBR flow through the failed Fig. 1
// network — HP as the paper's lower bound.
func BenchmarkAblationDeflectionPolicies(b *testing.B) {
	for _, policyName := range []string{"hp", "avp", "nip"} {
		b.Run(policyName, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				g, err := topology.Fig1()
				if err != nil {
					b.Fatal(err)
				}
				policy, _ := PolicyByName(policyName)
				w := experiment.NewWorld(g, policy, int64(i))
				if _, err := w.InstallRoute("S", "D", [][2]string{{"SW5", "SW11"}}); err != nil {
					b.Fatal(err)
				}
				l, _ := g.LinkBetween("SW7", "SW11")
				w.Net.FailLink(l)
				flow := packet.FlowID{Src: "S", Dst: "D"}
				send, recv := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{
					Interval: 500 * time.Microsecond, Count: 2000,
				})
				send.Start()
				w.Run(20 * time.Second)
				st := recv.Stats(send)
				ratio = st.DeliveryRatio()
			}
			b.ReportMetric(ratio*100, "delivered-pct")
		})
	}
}

// BenchmarkAblationReencodeDelay sweeps the controller round-trip
// paid by misdelivered packets (edge → controller → edge), the only
// control-plane dependence left in KAR's failure path.
func BenchmarkAblationReencodeDelay(b *testing.B) {
	for _, delay := range []time.Duration{0, 2 * time.Millisecond, 20 * time.Millisecond} {
		b.Run(delay.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				g, err := topology.Net15()
				if err != nil {
					b.Fatal(err)
				}
				policy, _ := PolicyByName("nip")
				w := experiment.NewWorld(g, policy, int64(i), experiment.WithReencodeDelay(delay))
				if _, err := w.InstallRoute("AS1", "AS3", topology.Net15PartialProtection); err != nil {
					b.Fatal(err)
				}
				l, _ := g.LinkBetween("SW10", "SW7")
				w.Net.FailLink(l)
				flow := packet.FlowID{Src: "AS1", Dst: "AS3"}
				send, recv := udpsim.NewFlow(w.Net, w.Edges["AS1"], w.Edges["AS3"], flow, udpsim.Config{
					Interval: time.Millisecond, Count: 1000,
				})
				send.Start()
				w.Run(30 * time.Second)
				mean = recv.Stats(send).MeanHops()
			}
			b.ReportMetric(mean, "mean-hops")
		})
	}
}

// BenchmarkWorldConstruction measures world assembly cost (topology +
// switches + edges + controller) for the RNP backbone.
func BenchmarkWorldConstruction(b *testing.B) {
	policy, _ := PolicyByName("nip")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := topology.RNP28()
		if err != nil {
			b.Fatal(err)
		}
		w := experiment.NewWorld(g, policy, int64(i))
		if _, err := w.InstallRoute("EDGE-N", "EDGE-SP", topology.RNP28PartialProtection); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Batched data plane.

// BenchmarkReduceBatch measures the word-parallel route-ID reduction
// that prices a whole packet train in one call: the unrolled small-ID
// lane and the wide-ID (math/big residue) lane at the train lengths
// the coalesced data plane actually produces. The ns/pkt metric is the
// per-member cost — compare it against BenchmarkForwardModulo's per-
// packet scalar reduction.
func BenchmarkReduceBatch(b *testing.B) {
	lanes := []struct {
		name string
		wide bool
	}{{"small", false}, {"wide", true}}
	for _, lane := range lanes {
		for _, n := range []int{4, 16, 64} {
			lane, n := lane, n
			b.Run(fmt.Sprintf("%s/n%d", lane.name, n), func(b *testing.B) {
				red := rns.NewReducer(benchSwitchID)
				var src [8]rns.RouteID
				if lane.wide {
					src = wideForwardIDs(b)
				} else {
					src = forwardIDs()
				}
				ids := make([]rns.RouteID, n)
				for i := range ids {
					ids[i] = src[i&7]
				}
				out := make([]uint16, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					red.ReduceBatch(ids, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(n)), "ns/pkt")
			})
		}
	}
}

// fig5PPS is the committed Fig. 5 packets-per-second harness: a
// saturating small-packet CBR burst on the Fig. 5 measurement path
// (AS1→AS3 over Net15, nip policy, full protection), one virtual
// second per iteration. Every link runs at its queue-backed line rate,
// so the wall-clock cost is the data plane itself — per-hop forwarding
// plus the scheduler — and the pkts/s metric is total hop deliveries
// over wall time. The batch/scalar ratio of this metric is the
// headline speedup DESIGN.md §9 quotes.
func fig5PPS(b *testing.B, scalar bool) {
	policy, ok := PolicyByName("nip")
	if !ok {
		b.Fatal("nip policy missing")
	}
	var hops int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := topology.Net15()
		if err != nil {
			b.Fatal(err)
		}
		var opts []experiment.WorldOption
		if scalar {
			opts = append(opts, experiment.WithScalarDataPlane())
		}
		w := experiment.NewWorld(g, policy, 1, opts...)
		if _, err := w.InstallRoute("AS1", "AS3", topology.Net15FullProtection); err != nil {
			b.Fatal(err)
		}
		flow := packet.FlowID{Src: "AS1", Dst: "AS3"}
		send, _ := udpsim.NewFlow(w.Net, w.Edges["AS1"], w.Edges["AS3"], flow, udpsim.Config{
			Interval: time.Millisecond, Size: 250, Burst: 100,
		})
		b.StartTimer()
		send.Start()
		w.Run(time.Second)
		hops += w.Net.Delivered()
	}
	b.ReportMetric(float64(hops)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkFig5PacketsPerSec is the batched data plane (the default
// everywhere); its pkts/s must be ≥5× the scalar variant below.
func BenchmarkFig5PacketsPerSec(b *testing.B) { fig5PPS(b, false) }

// BenchmarkFig5PacketsPerSecScalar is the event-per-packet baseline
// (the scalar test oracle), kept unoptimized on purpose: the ratio
// measures exactly what train coalescing and ReduceBatch buy.
func BenchmarkFig5PacketsPerSecScalar(b *testing.B) { fig5PPS(b, true) }

// ---------------------------------------------------------------------------
// Sharded execution: datacenter-class fabrics under the million-flow
// workload (ISSUE: sharded deterministic DES).

// benchScale runs one generated-fabric scale workload per iteration —
// world construction, route installs, the flow-set arrival process,
// the drain window — and reports injected packets per wall second.
// Results are byte-identical across shard counts (shard_test.go and
// TestDeterminismMatrix gate on it); these benchmarks measure only the
// wall-clock side of that equivalence.
func benchScale(b *testing.B, shards, flows int, dur time.Duration) {
	b.Helper()
	var sent, hops int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Scale(experiment.ScaleConfig{
			Topo:     "fattree:28", // 980 switches, 392 hosts
			Shards:   shards,
			Flows:    flows,
			Pairs:    256,
			Duration: dur,
			Seed:     7,
		})
		if err != nil {
			b.Fatal(err)
		}
		sent += int64(res.Stats.Sent)
		hops += int64(res.Stats.TotalHops)
	}
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(hops)/b.Elapsed().Seconds(), "hops/s")
}

// BenchmarkShardScaling sweeps the shard count on the 1k-switch
// fat-tree under the million-flow workload. On a multi-core host the
// conservative windows overlap and throughput scales with shards; on
// a single hardware thread the curve is flat-to-slightly-positive
// (smaller per-lane heaps shave the O(log n) pop cost) — the
// committed BENCH entry records which machine produced it.
func BenchmarkShardScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchScale(b, shards, 1_000_000, 200*time.Millisecond)
		})
	}
}

// BenchmarkScale1kSwitch is the flagship committed run: 980 switches,
// a 10^6-flow population, 4 shards, half a virtual second of Poisson
// arrivals plus drain.
func BenchmarkScale1kSwitch(b *testing.B) {
	benchScale(b, 4, 1_000_000, 500*time.Millisecond)
}

// BenchmarkWorldConstruction1kSwitch pins the construction cost of a
// datacenter-class world: generator, coprime ID assignment (the
// blocked-factor allocator keeps it out of the quadratic regime this
// benchmark used to sit in), switch bring-up, scheduler and train
// arena pre-sizing. No traffic.
func BenchmarkWorldConstruction1kSwitch(b *testing.B) {
	policy, ok := PolicyByName("nip")
	if !ok {
		b.Fatal("nip policy missing")
	}
	for i := 0; i < b.N; i++ {
		g, err := topology.FromSpec("fattree:28")
		if err != nil {
			b.Fatal(err)
		}
		if w := experiment.NewWorld(g, policy, 1, experiment.WithShards(4)); w == nil {
			b.Fatal("nil world")
		}
	}
}
