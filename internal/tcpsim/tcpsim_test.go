package tcpsim

import (
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/edge"
	"repro/internal/kswitch"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// tcpWorld is a Fig. 1 network with one TCP flow S→D.
type tcpWorld struct {
	net  *simnet.Network
	ctrl *controller.Controller
	send *Sender
	recv *Receiver
}

func newTCPWorld(t *testing.T, policyName string, protected bool, cfg Config) *tcpWorld {
	t.Helper()
	g, err := topology.Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	w := &tcpWorld{net: simnet.New(g)}
	w.ctrl = controller.New(g)
	policy, ok := deflect.ByName(policyName)
	if !ok {
		t.Fatalf("unknown policy %q", policyName)
	}
	kswitch.InstallAll(w.net, policy, 42)

	edges := make(map[string]*edge.Edge)
	for _, n := range g.EdgeNodes() {
		edges[n.Name()] = edge.New(w.net, n, w.ctrl)
	}

	var prot []core.Hop
	if protected {
		prot, err = core.HopsFromPairs(g, [][2]string{{"SW5", "SW11"}})
		if err != nil {
			t.Fatalf("HopsFromPairs: %v", err)
		}
	}
	install := func(src, dst string, hops []core.Hop) {
		route, err := w.ctrl.InstallRoute(src, dst, hops)
		if err != nil {
			t.Fatalf("InstallRoute(%s, %s): %v", src, dst, err)
		}
		port, err := w.ctrl.IngressPort(route)
		if err != nil {
			t.Fatalf("IngressPort: %v", err)
		}
		edges[src].InstallRoute(dst, route.ID, port)
	}
	install("S", "D", prot)
	install("D", "S", nil) // ACK path

	flow := packet.FlowID{Src: "S", Dst: "D"}
	w.send, w.recv = NewFlow(w.net, edges["S"], edges["D"], flow, cfg)
	return w
}

func (w *tcpWorld) run(until time.Duration) { w.net.Scheduler().RunUntil(until) }

// goodputMbps over a window.
func goodputMbps(bytes int64, window time.Duration) float64 {
	return float64(bytes*8) / window.Seconds() / 1e6
}

// TestSteadyThroughputNearLineRate: on a healthy 200 Mb/s path, Reno
// should fill most of the pipe.
func TestSteadyThroughputNearLineRate(t *testing.T) {
	w := newTCPWorld(t, "none", false, Config{})
	w.send.Start()
	w.run(10 * time.Second)
	tput := goodputMbps(w.recv.BytesInOrder(), 10*time.Second)
	if tput < 120 || tput > 201 {
		t.Errorf("steady goodput = %.1f Mb/s, want within (120, 201] of the 200 Mb/s bottleneck", tput)
	}
	st := w.send.Stats()
	if st.Timeouts > 1 {
		t.Errorf("timeouts = %d on a healthy path, want at most the occasional one", st.Timeouts)
	}
	// On a single fixed path there is no reordering; any gaps at the
	// receiver come from queue-overflow losses, so the worst gap is
	// bounded by the flight a single loss can strand (≤ max window).
	rs := w.recv.Stats()
	if rs.MaxGap > int(w.send.cfg.MaxCwnd) {
		t.Errorf("max receiver gap = %d segments, beyond the window cap %v", rs.MaxGap, w.send.cfg.MaxCwnd)
	}
}

// TestRTTEstimation: SRTT should approximate the physical round trip
// (8 ms propagation + serialization + queueing).
func TestRTTEstimation(t *testing.T) {
	w := newTCPWorld(t, "none", false, Config{})
	w.send.Start()
	w.run(5 * time.Second)
	st := w.send.Stats()
	if st.SRTT < 8*time.Millisecond || st.SRTT > 60*time.Millisecond {
		t.Errorf("SRTT = %v, want within [8ms, 60ms] for a 4-hop 1ms-per-link path", st.SRTT)
	}
	if st.RTO < w.send.cfg.MinRTO {
		t.Errorf("RTO = %v below MinRTO %v", st.RTO, w.send.cfg.MinRTO)
	}
}

// TestBlackholeStallsAndRecovers: with no deflection, a failure on the
// route stalls the flow (RTO backoff); repair lets it recover.
func TestBlackholeStallsAndRecovers(t *testing.T) {
	w := newTCPWorld(t, "none", false, Config{MaxRTO: 2 * time.Second})
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	w.net.ScheduleFailure(link, 5*time.Second, 5*time.Second)
	w.send.Start()

	w.run(5 * time.Second)
	before := w.recv.BytesInOrder()
	w.run(10 * time.Second)
	during := w.recv.BytesInOrder() - before
	w.run(20 * time.Second)
	after := w.recv.BytesInOrder() - before - during

	if before == 0 {
		t.Fatal("no bytes before the failure")
	}
	if frac := float64(during) / float64(before); frac > 0.05 {
		t.Errorf("failure-window goodput is %.1f%% of pre-failure, want < 5%% (blackhole)", frac*100)
	}
	if after < before {
		t.Errorf("post-repair goodput (%d bytes over 10s) below pre-failure (%d over 5s); flow did not recover", after, before)
	}
	if st := w.send.Stats(); st.Timeouts == 0 {
		t.Error("no RTO timeouts despite a 5s blackhole")
	}
}

// TestDeflectionKeepsFlowAliveNIP: same failure, NIP deflection with
// the SW5 protection: traffic keeps flowing during the outage (the
// paper's hitless property), at reduced but substantial throughput.
func TestDeflectionKeepsFlowAliveNIP(t *testing.T) {
	w := newTCPWorld(t, "nip", true, Config{})
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	w.net.ScheduleFailure(link, 5*time.Second, 10*time.Second)
	w.send.Start()

	w.run(5 * time.Second)
	before := w.recv.BytesInOrder()
	w.run(15 * time.Second)
	during := w.recv.BytesInOrder() - before

	beforeMbps := goodputMbps(before, 5*time.Second)
	duringMbps := goodputMbps(during, 10*time.Second)
	if duringMbps < 0.4*beforeMbps {
		t.Errorf("goodput during failure = %.1f Mb/s vs %.1f before; NIP with protection should retain most throughput",
			duringMbps, beforeMbps)
	}
	if st := w.send.Stats(); st.Timeouts > 2 {
		t.Errorf("timeouts = %d; driven deflection should avoid RTO stalls", st.Timeouts)
	}
}

// TestReorderingCausesDupAcksNotCollapse: AVP deflection (bouncy paths)
// must produce out-of-order arrivals and fast retransmits, yet keep
// goodput well above the blackhole case.
func TestReorderingCausesFastRetransmits(t *testing.T) {
	w := newTCPWorld(t, "avp", true, Config{})
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	w.net.ScheduleFailure(link, 2*time.Second, 8*time.Second)
	w.send.Start()
	w.run(10 * time.Second)

	rs := w.recv.Stats()
	if rs.SegmentsOutOfOrd == 0 {
		t.Error("no out-of-order segments despite multi-path deflection")
	}
	ss := w.send.Stats()
	if ss.FastRetransmits == 0 {
		t.Error("no fast retransmits despite reordering (dup-ACK machinery inert?)")
	}
	if rs.BytesInOrder == 0 {
		t.Error("no goodput at all under AVP deflection")
	}
}

// TestStopDrainsCleanly: after Stop and full drain the event queue
// empties (no timer leak).
func TestStopDrainsCleanly(t *testing.T) {
	w := newTCPWorld(t, "none", false, Config{})
	w.send.Start()
	w.run(time.Second)
	w.send.Stop()
	w.run(90 * time.Second) // far beyond any RTO chain
	if pending := w.net.Pending(); pending != 0 {
		t.Errorf("%d events still pending after drain; timers leak", pending)
	}
	if w.send.flight() != 0 {
		t.Errorf("flight = %d after drain, want 0", w.send.flight())
	}
}

// TestGoodputMonotone: the receiver's in-order byte counter never
// regresses and equals MSS * in-order segments.
func TestGoodputAccounting(t *testing.T) {
	w := newTCPWorld(t, "nip", true, Config{})
	link, _ := w.net.Topology().LinkBetween("SW7", "SW11")
	w.net.ScheduleFailure(link, time.Second, 2*time.Second)
	w.send.Start()
	var last int64
	for i := 1; i <= 8; i++ {
		w.run(time.Duration(i) * 500 * time.Millisecond)
		cur := w.recv.BytesInOrder()
		if cur < last {
			t.Fatalf("goodput regressed: %d -> %d", last, cur)
		}
		last = cur
	}
	rs := w.recv.Stats()
	if rs.BytesInOrder != rs.SegmentsInOrder*int64(w.recv.cfg.MSS) {
		t.Errorf("bytes %d != segments %d * MSS %d", rs.BytesInOrder, rs.SegmentsInOrder, w.recv.cfg.MSS)
	}
}

// TestConfigDefaults: zero config is filled with sane values.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.MSS == 0 || c.HeaderBytes == 0 || c.AckBytes == 0 ||
		c.InitialCwnd == 0 || c.MaxCwnd == 0 || c.MinRTO == 0 ||
		c.MaxRTO == 0 || c.DupAckThreshold == 0 {
		t.Errorf("Defaults left zero fields: %+v", c)
	}
	custom := Config{MSS: 500}.Defaults()
	if custom.MSS != 500 {
		t.Errorf("Defaults overwrote explicit MSS: %d", custom.MSS)
	}
}
