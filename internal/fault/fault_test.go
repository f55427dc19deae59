package fault

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// pairNet builds A-B with an optional detection model and a counting
// sink bound to B.
// linkUp reads a link's physical state off its kar_link_up gauge.
func linkUp(n *simnet.Network, l *topology.Link) bool {
	return n.Metrics().Gauge("kar_link_up", "link", l.Name()).Value() == 1
}

func pairNet(t *testing.T, opts ...simnet.Option) (*simnet.Network, *topology.Node, *topology.Link, *recorder) {
	t.Helper()
	g := topology.New("pair")
	for _, name := range []string{"A", "B"} {
		if _, err := g.AddEdge(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Connect("A", "B"); err != nil {
		t.Fatal(err)
	}
	n := simnet.New(g, opts...)
	a, _ := g.Node("A")
	b, _ := g.Node("B")
	rec := &recorder{}
	n.Bind(b, rec)
	link, _ := a.PortLink(0)
	return n, a, link, rec
}

type recorder struct{ pkts []*packet.Packet }

func (r *recorder) HandlePacket(pkt *packet.Packet, inPort int) { r.pkts = append(r.pkts, pkt) }

// starNet builds edges E0..E2 around one core switch S.
func starNet(t *testing.T) (*simnet.Network, *topology.Graph) {
	t.Helper()
	g := topology.New("star")
	if _, err := g.AddCore("S", 7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("E%d", i)
		if _, err := g.AddEdge(name); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Connect("S", name); err != nil {
			t.Fatal(err)
		}
	}
	return simnet.New(g), g
}

func TestLinkCutWindow(t *testing.T) {
	n, a, link, rec := pairNet(t)
	// Links propagate in ~1ms, so the cut window [2ms,6ms) leaves the
	// 0ms send clear to land before it and the 7ms send after it; the
	// 3ms send dies at the sender.
	cut := &LinkCut{A: "A", B: "B", Start: 2 * time.Millisecond, Duration: 4 * time.Millisecond}
	if err := cut.Install(n); err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{0, 3 * time.Millisecond, 7 * time.Millisecond} {
		at := at
		n.Scheduler().At(at, func() {
			n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8, Seq: uint64(at / time.Millisecond)})
		})
	}
	n.Scheduler().RunUntil(time.Second)
	if len(rec.pkts) != 2 {
		t.Fatalf("delivered %d packets, want the 0ms and 7ms sends", len(rec.pkts))
	}
	if rec.pkts[0].Seq != 0 || rec.pkts[1].Seq != 7 {
		t.Errorf("delivered seqs %d,%d; want 0,7", rec.pkts[0].Seq, rec.pkts[1].Seq)
	}
	if !linkUp(n, link) {
		t.Error("link still down after the cut window")
	}
	if got := n.Metrics().CounterValue("kar_fault_injections_total", "kind", "link_cut"); got != 1 {
		t.Errorf("kar_fault_injections_total{kind=link_cut} = %d, want 1", got)
	}
}

func TestPermanentLinkCut(t *testing.T) {
	n, _, link, _ := pairNet(t)
	cut := &LinkCut{A: "A", B: "B", Start: time.Millisecond} // Duration 0: forever
	if err := cut.Install(n); err != nil {
		t.Fatal(err)
	}
	n.Scheduler().RunUntil(time.Second)
	if linkUp(n, link) {
		t.Error("permanent cut came back up")
	}
}

// The deterministic flap with period 2ms and duty 0.5 over [1ms,7ms)
// is down exactly on [1,2) [3,4) [5,6): probes at odd+0.5ms see it
// down, probes at even+0.5ms see it up, and it ends up after the
// window.
func TestFlapDeterministicTrain(t *testing.T) {
	n, _, link, _ := pairNet(t)
	f := &Flap{A: "A", B: "B", Start: time.Millisecond, Window: 6 * time.Millisecond, Period: 2 * time.Millisecond, Duty: 0.5}
	if err := f.Install(n); err != nil {
		t.Fatal(err)
	}
	states := map[time.Duration]bool{}
	for k := 0; k < 8; k++ {
		at := time.Duration(k)*time.Millisecond + 500*time.Microsecond
		n.Scheduler().At(at, func() { states[at] = linkUp(n, link) })
	}
	n.Scheduler().RunUntil(time.Second)
	for at, up := range states {
		ms := at / time.Millisecond
		wantDown := ms == 1 || ms == 3 || ms == 5
		if up == wantDown {
			t.Errorf("at %v link up=%v, want down=%v", at, up, wantDown)
		}
	}
	if !linkUp(n, link) {
		t.Error("flap leaked a down-hold past its window")
	}
}

func TestFlapValidation(t *testing.T) {
	n, _, _, _ := pairNet(t)
	for _, f := range []*Flap{
		{A: "A", B: "B", Window: time.Second, Period: 0, Duty: 0.5},
		{A: "A", B: "B", Window: time.Second, Period: time.Millisecond, Duty: 1.5},
		{A: "A", B: "B", Window: 0, Period: time.Millisecond, Duty: 0.5},
		{A: "A", B: "Z", Window: time.Second, Period: time.Millisecond, Duty: 0.5},
	} {
		if err := f.Install(n); err == nil {
			t.Errorf("Install(%+v) accepted invalid config", f)
		}
	}
}

// Two ExpFlaps with the same seed produce identical transition
// timelines; a different seed produces a different one. Transitions
// are observed through the link detection hook (immediate with no
// detection-latency model).
func TestExpFlapSeedDeterminism(t *testing.T) {
	timeline := func(seed int64) []string {
		n, _, _, _ := pairNet(t)
		var events []string
		n.SetLinkDetectionHook(func(l *topology.Link, up bool) {
			events = append(events, fmt.Sprintf("%v up=%v", n.Scheduler().Now(), up))
		})
		f := &ExpFlap{A: "A", B: "B", Window: 500 * time.Millisecond,
			MeanDown: 5 * time.Millisecond, MeanUp: 10 * time.Millisecond, Seed: seed}
		if err := f.Install(n); err != nil {
			t.Fatal(err)
		}
		n.Scheduler().RunUntil(time.Second)
		return events
	}
	a, b, c := timeline(42), timeline(42), timeline(43)
	if len(a) == 0 {
		t.Fatal("500ms window with 10ms mean up produced no transitions")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed, different timelines:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced identical flap timelines")
	}
}

func TestExpFlapNeverLeaksHoldPastWindow(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		n, _, link, _ := pairNet(t)
		f := &ExpFlap{A: "A", B: "B", Window: 50 * time.Millisecond,
			MeanDown: 20 * time.Millisecond, MeanUp: time.Millisecond, Seed: seed}
		if err := f.Install(n); err != nil {
			t.Fatal(err)
		}
		n.Scheduler().RunUntil(time.Second)
		if !linkUp(n, link) {
			t.Fatalf("seed %d: link still down after the flap window", seed)
		}
	}
}

// Gray impairment: total loss inside the window, clean delivery after
// it, all losses under the kar_fault_* family.
func TestGrayWindow(t *testing.T) {
	n, a, link, rec := pairNet(t)
	g := &Gray{A: "A", B: "B", Start: time.Millisecond, Window: 4 * time.Millisecond, DropProb: 1, Seed: 9}
	if err := g.Install(n); err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 6 * time.Millisecond} {
		at := at
		n.Scheduler().At(at, func() {
			n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8, Seq: uint64(at / time.Millisecond)})
		})
	}
	n.Scheduler().RunUntil(time.Second)
	if len(rec.pkts) != 1 || rec.pkts[0].Seq != 6 {
		t.Fatalf("delivered %d packets, want only the post-window 6ms send", len(rec.pkts))
	}
	if got := n.Metrics().CounterValue("kar_fault_gray_drops_total", "link", link.Name()); got != 2 {
		t.Errorf("gray drops = %d, want 2", got)
	}
}

func TestGrayValidation(t *testing.T) {
	n, _, _, _ := pairNet(t)
	if err := (&Gray{A: "A", B: "B", DropProb: 0.8, CorruptProb: 0.5}).Install(n); err == nil {
		t.Error("accepted drop+corrupt probabilities summing past 1")
	}
	if err := (&Gray{A: "A", B: "Z"}).Install(n); err == nil {
		t.Error("accepted a nonexistent link")
	}
}

// SwitchCrash downs every port of the switch in one virtual instant
// and restores them all after the duration.
func TestSwitchCrashHoldsAllPorts(t *testing.T) {
	n, g := starNet(t)
	s, _ := g.Node("S")
	c := &SwitchCrash{Switch: "S", Start: time.Millisecond, Duration: 4 * time.Millisecond}
	if err := c.Install(n); err != nil {
		t.Fatal(err)
	}
	downAll, upAll := false, false
	n.Scheduler().At(2*time.Millisecond, func() {
		downAll = true
		for i := 0; i < s.Degree(); i++ {
			l, _ := s.PortLink(i)
			if linkUp(n, l) {
				downAll = false
			}
		}
	})
	n.Scheduler().At(6*time.Millisecond, func() {
		upAll = true
		for i := 0; i < s.Degree(); i++ {
			l, _ := s.PortLink(i)
			if !linkUp(n, l) {
				upAll = false
			}
		}
	})
	n.Scheduler().RunUntil(time.Second)
	if !downAll {
		t.Error("some port of the crashed switch stayed up during the crash")
	}
	if !upAll {
		t.Error("some port stayed down after the crash ended")
	}
	if err := (&SwitchCrash{Switch: "nope"}).Install(n); err == nil {
		t.Error("accepted a nonexistent switch")
	}
}

// A crash overlapping a scheduled single-link window composes through
// the refcount: the shared link comes up only when both end.
func TestCrashComposesWithScheduledWindow(t *testing.T) {
	n, g := starNet(t)
	l, _ := g.LinkBetween("S", "E0")
	n.ScheduleFailure(l, time.Millisecond, 10*time.Millisecond) // [1ms,11ms)
	c := &SwitchCrash{Switch: "S", Start: 2 * time.Millisecond, Duration: 2 * time.Millisecond}
	if err := c.Install(n); err != nil {
		t.Fatal(err)
	}
	var at5, at12 bool
	n.Scheduler().At(5*time.Millisecond, func() { at5 = linkUp(n, l) })
	n.Scheduler().At(12*time.Millisecond, func() { at12 = linkUp(n, l) })
	n.Scheduler().RunUntil(time.Second)
	if at5 {
		t.Error("S-E0 up at 5ms while the scheduled window still holds it")
	}
	if !at12 {
		t.Error("S-E0 down at 12ms after both holds released")
	}
}

// Every injector's activation lands in the event log as fault_inject
// and in kar_fault_injections_total by kind.
func TestInjectionTelemetry(t *testing.T) {
	n, _, _, _ := pairNet(t)
	injs := []Injector{
		&LinkCut{A: "A", B: "B", Start: time.Millisecond, Duration: time.Millisecond},
		&Flap{A: "A", B: "B", Start: 5 * time.Millisecond, Window: 4 * time.Millisecond, Period: 2 * time.Millisecond, Duty: 0.25},
		&Gray{A: "A", B: "B", Start: 10 * time.Millisecond, Window: time.Millisecond, DropProb: 0.5, Seed: 3},
	}
	for _, inj := range injs {
		if err := inj.Install(n); err != nil {
			t.Fatal(err)
		}
	}
	n.Scheduler().RunUntil(time.Second)
	for _, kind := range []string{"link_cut", "flap", "gray"} {
		if got := n.Metrics().CounterValue("kar_fault_injections_total", "kind", kind); got != 1 {
			t.Errorf("kar_fault_injections_total{kind=%s} = %d, want 1", kind, got)
		}
	}
	var faults int
	for _, e := range n.Events().Events() {
		if e.Kind == telemetry.EventFaultInject {
			faults++
		}
	}
	if faults != 3 {
		t.Errorf("recorded %d fault_inject events, want 3", faults)
	}
}

// Install checks first: an injector on a nonexistent link is refused,
// by Check against the topology and by Install on the network.
func TestInstallChecksLink(t *testing.T) {
	n, _, _, _ := pairNet(t)
	bad := &LinkCut{A: "A", B: "Z"}
	if bad.Check(n.Topology()) == nil || bad.Install(n) == nil {
		t.Fatal("an injector on a nonexistent link was accepted")
	}
}
