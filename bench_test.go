// Benchmarks regenerating every table and figure of the paper's
// evaluation (§3), ablations of the design choices called out in
// DESIGN.md, and the scale harnesses. The per-layer kernels and the
// end-to-end workloads that are evidence for performance live in
// bench/ (see BENCHMARK.json).
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

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

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
				w := experiment.NewWorld(g, policy, int64(i), edge.WithReencodeDelay(delay))
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

// BenchmarkFig5PacketsPerSec is the Fig. 5 packets-per-second harness:
// a saturating small-packet CBR burst on the Fig. 5 measurement path
// (AS1→AS3 over Net15, nip policy, full protection), one virtual
// second per iteration. Every link runs at its queue-backed line rate,
// so the wall-clock cost is the data plane itself — per-hop forwarding
// plus the scheduler — and the pkts/s metric is total hop deliveries
// over wall time.
func BenchmarkFig5PacketsPerSec(b *testing.B) {
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
		w := experiment.NewWorld(g, policy, 1)
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
// fat-tree under the million-flow workload. Lanes run in parallel only
// on idle cores: past the host's core count they take turns, and the
// curve flattens. Its readings depend on the machine, so none is
// committed; the alternated-pair figure at shards=2 is the repository
// benchmark's fattree28_flows workload (bench/README.md).
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
// datacenter-class world: generator, coprime ID assignment and its
// validation (the blocked-factor allocator and the running-product
// coprimality check keep both out of the quadratic regime this
// benchmark used to sit in), switch bring-up, scheduler and train
// arena pre-sizing. No routes, no traffic.
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
		if w := experiment.NewWorld(g, policy, 1, simnet.WithShards(4)); w == nil {
			b.Fatal("nil world")
		}
	}
}
