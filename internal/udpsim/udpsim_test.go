package udpsim_test

import (
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

func fig1World(t *testing.T, policyName string, protected bool) *experiment.World {
	t.Helper()
	g, err := topology.Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	policy, ok := deflect.ByName(policyName)
	if !ok {
		t.Fatalf("policy %q", policyName)
	}
	w := experiment.NewWorld(g, policy, 7)
	var prot [][2]string
	if protected {
		prot = [][2]string{{"SW5", "SW11"}}
	}
	if _, err := w.InstallRoute("S", "D", prot); err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	return w
}

func TestCBRHealthyDelivery(t *testing.T) {
	w := fig1World(t, "none", false)
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, recv := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{
		Interval: time.Millisecond, Count: 500,
	})
	send.Start()
	w.Run(2 * time.Second)

	st := recv.Stats(send)
	if st.Sent != 500 || st.Received != 500 {
		t.Fatalf("sent/received = %d/%d, want 500/500", st.Sent, st.Received)
	}
	if st.DeliveryRatio() != 1 {
		t.Errorf("delivery ratio = %v, want 1", st.DeliveryRatio())
	}
	if st.MinHops != 4 || st.MaxHops != 4 || st.MeanHops() != 4 {
		t.Errorf("hops = min %d / mean %.1f / max %d, want all 4", st.MinHops, st.MeanHops(), st.MaxHops)
	}
	if st.Reordered != 0 {
		t.Errorf("reordered = %d on a fixed path, want 0", st.Reordered)
	}
	// One-way latency: 4 links × 1 ms + serialization.
	h := w.Net.Metrics().Histogram("kar_udp_latency_us", telemetry.LatencyBucketsUs, "flow", flow.String())
	if h.Count() != 500 {
		t.Fatalf("latency observations = %d, want 500", h.Count())
	}
	if st.LatencyMin < 4*time.Millisecond || st.LatencyMax > 6*time.Millisecond {
		t.Fatalf("latency [%v, %v] outside [4ms, 6ms]", st.LatencyMin, st.LatencyMax)
	}
}

func TestCBRFailureLossWithoutDeflection(t *testing.T) {
	w := fig1World(t, "none", false)
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, recv := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{
		Interval: time.Millisecond, Count: 1000,
	})
	// Fail SW7-SW11 for the middle ~500 ms of the 1 s emission.
	if err := w.FailLinkBetween("SW7", "SW11", 250*time.Millisecond, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	send.Start()
	w.Run(3 * time.Second)

	st := recv.Stats(send)
	lost := st.Sent - st.Received
	if lost < 450 || lost > 550 {
		t.Errorf("lost %d of %d, want ~500 (the failure window)", lost, st.Sent)
	}
}

func TestCBRDeflectionStretchesPaths(t *testing.T) {
	w := fig1World(t, "nip", true)
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, recv := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{
		Interval: time.Millisecond, Count: 1000,
	})
	if err := w.FailLinkBetween("SW7", "SW11", 250*time.Millisecond, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	send.Start()
	w.Run(3 * time.Second)

	st := recv.Stats(send)
	if st.Received < 995 {
		t.Errorf("received %d of %d; driven deflection should be hitless", st.Received, st.Sent)
	}
	if st.MinHops != 4 {
		t.Errorf("min hops = %d, want 4 (healthy phase)", st.MinHops)
	}
	if st.MaxHops != 5 {
		t.Errorf("max hops = %d, want 5 (deflected S-SW4-SW7-SW5-SW11-D)", st.MaxHops)
	}
	if st.MeanHops() <= 4 || st.MeanHops() >= 5 {
		t.Errorf("mean hops = %.2f, want between 4 and 5", st.MeanHops())
	}
}

func TestCBRStopAndCountlessConfig(t *testing.T) {
	w := fig1World(t, "none", false)
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, recv := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{
		Interval: time.Millisecond, // Count 0: run until stopped
	})
	send.Start()
	w.Net.Scheduler().At(100*time.Millisecond, send.Stop)
	w.Run(time.Second)
	st := recv.Stats(send)
	if st.Sent < 99 || st.Sent > 102 {
		t.Errorf("sent = %d, want ~100 (stopped at 100ms)", st.Sent)
	}
	if st.Received != st.Sent {
		t.Errorf("received %d != sent %d on a healthy path", st.Received, st.Sent)
	}
	if w.Net.Pending() != 0 {
		t.Errorf("%d events pending after stop", w.Net.Pending())
	}
}

// A negative interval must not re-arm the sender at one virtual instant
// for ever: it takes the default spacing and the run reaches its end.
func TestCBRNegativeIntervalTerminates(t *testing.T) {
	w := fig1World(t, "none", false)
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, recv := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{
		Interval: -time.Millisecond, Count: 50,
	})
	send.Start()
	w.Run(time.Second)
	if st := recv.Stats(send); st.Sent != 50 || st.LastArrive < 49*time.Millisecond {
		t.Errorf("sent %d, last arrival %v; want 50 packets at the default 1 ms spacing", st.Sent, st.LastArrive)
	}
}

func TestCBRDuplicateDetection(t *testing.T) {
	// AVP bounce-backs can deliver duplicates only if the network
	// duplicates packets — it never does; this asserts the counter
	// stays zero even under heavy deflection.
	w := fig1World(t, "avp", true)
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, recv := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{
		Interval: time.Millisecond, Count: 500,
	})
	if err := w.FailLinkBetween("SW7", "SW11", 0, time.Second); err != nil {
		t.Fatal(err)
	}
	send.Start()
	w.Run(5 * time.Second)
	st := recv.Stats(send)
	if st.DupSeqs != 0 {
		t.Errorf("dup seqs = %d, want 0", st.DupSeqs)
	}
	if st.Received == 0 {
		t.Error("nothing delivered under AVP")
	}
}

// TestSaturatedHopAllocatesNothing: once a saturating CBR flow on the
// Fig. 5 measurement path (AS1→AS3 over Net15, nip, full protection)
// is warm, its hops — switch, link, train, scheduler, telemetry and the
// packets themselves, recycled through the lanes' caches and, between
// runs, the depot — allocate nothing. The 100 ms warm-up also grows the
// receiver's duplicate bitmap past every sequence number the measured
// runs reach.
func TestSaturatedHopAllocatesNothing(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	policy, _ := deflect.ByName("nip")
	w := experiment.NewWorld(g, policy, 1)
	if _, err := w.InstallRoute("AS1", "AS3", topology.Net15FullProtection); err != nil {
		t.Fatal(err)
	}
	send, _ := udpsim.NewFlow(w.Net, w.Edges["AS1"], w.Edges["AS3"], packet.FlowID{Src: "AS1", Dst: "AS3"},
		udpsim.Config{Interval: time.Millisecond, Size: 250, Burst: 100})
	send.Start()
	until := 100 * time.Millisecond
	w.Run(until)
	before := w.Net.Delivered()
	allocs := testing.AllocsPerRun(5, func() {
		until += 10 * time.Millisecond
		w.Run(until)
	})
	hops := w.Net.Delivered() - before
	if hops < 10_000 {
		t.Fatalf("%d hops in the measured runs: the flow is not saturating the path", hops)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per 10 ms run of %d hops, want 0", allocs, hops/6)
	}
}
