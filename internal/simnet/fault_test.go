package simnet

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/topology"
)

// Regression for overlapping ScheduleFailure windows: window A
// [1ms,5ms) plus window B [3ms,10ms) used to end at 5ms because A's
// repair re-raised the link B still held down. With reference-counted
// down-state the link stays down until the last window releases.
func TestOverlappingFailureWindows(t *testing.T) {
	n, a, _, sk := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)

	n.ScheduleFailure(link, time.Millisecond, 4*time.Millisecond)   // [1ms, 5ms)
	n.ScheduleFailure(link, 3*time.Millisecond, 7*time.Millisecond) // [3ms, 10ms)

	// Probe the detected state inside the would-be gap and after the
	// true end of the union window.
	var at6, at11 bool
	n.Scheduler().At(6*time.Millisecond, func() { at6 = n.PortUp(aNode, 0) })
	n.Scheduler().At(11*time.Millisecond, func() { at11 = n.PortUp(aNode, 0) })
	// A packet sent at 6ms must die; one at 11ms must arrive.
	n.Scheduler().At(6*time.Millisecond, func() {
		n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8, Seq: 6})
	})
	n.Scheduler().At(11*time.Millisecond, func() {
		n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8, Seq: 11})
	})
	n.Scheduler().RunUntil(time.Second)

	if at6 {
		t.Error("link up at 6ms inside overlapping windows [1,5)+[3,10)")
	}
	if !at11 {
		t.Error("link still down at 11ms, after both windows ended")
	}
	if len(sk.pkts) != 1 || sk.pkts[0].Seq != 11 {
		t.Errorf("delivered %d packets, want exactly the 11ms probe", len(sk.pkts))
	}
}

// FailLink's manual hold composes with scheduled windows instead of
// fighting them, and stays idempotent.
func TestManualHoldComposesWithWindows(t *testing.T) {
	n, _, _, _ := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)

	n.ScheduleFailure(link, 0, 5*time.Millisecond)
	n.Scheduler().At(time.Millisecond, func() {
		n.FailLink(link)
		n.FailLink(link) // idempotent: still one manual hold
	})
	var afterWindow, afterRepair bool
	n.Scheduler().At(6*time.Millisecond, func() {
		afterWindow = n.LinkUp(link) // manual hold still outstanding
		n.RepairLink(link)
		afterRepair = n.LinkUp(link)
	})
	n.Scheduler().RunUntil(time.Second)
	if afterWindow {
		t.Error("link up after window ended while FailLink hold outstanding")
	}
	if !afterRepair {
		t.Error("link down after the last hold (RepairLink) released")
	}
}

func TestReleaseWithoutHoldIsNoop(t *testing.T) {
	n, _, _, _ := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.ReleaseLinkDown(link) // must not underflow
	n.RepairLink(link)
	n.AcquireLinkDown(link)
	if n.LinkUp(link) {
		t.Fatal("link up after a single acquire")
	}
	n.ReleaseLinkDown(link)
	if !n.LinkUp(link) {
		t.Fatal("link down after matching release")
	}
}

// Detection latency: a failed link keeps reading up to the switches
// until the detection delay elapses; packets sent in that window
// black-hole as in-flight drops instead of clean local link-down
// drops, and the detection hook fires at the detection instant.
func TestDetectionLatencyBlackholes(t *testing.T) {
	g := topology.New("pair")
	if _, err := g.AddEdge("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("B"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect("A", "B"); err != nil {
		t.Fatal(err)
	}
	n := New(g, WithDetectionDelay(5*time.Millisecond, 3*time.Millisecond))
	aNode, _ := g.Node("A")
	bNode, _ := g.Node("B")
	sk := &sink{sched: n.Scheduler()}
	n.Bind(bNode, sk)
	link, _ := aNode.PortLink(0)

	var hookDowns, hookUps []time.Duration
	n.SetLinkDetectionHook(func(l *topology.Link, up bool) {
		if up {
			hookUps = append(hookUps, n.Scheduler().Now())
		} else {
			hookDowns = append(hookDowns, n.Scheduler().Now())
		}
	})

	n.ScheduleFailure(link, 10*time.Millisecond, 10*time.Millisecond)
	var seenAt12, seenAt16 bool
	n.Scheduler().At(12*time.Millisecond, func() {
		seenAt12 = n.PortUp(aNode, 0) // pre-detection: still reads up
		n.Send(aNode, 0, &packet.Packet{Size: 100, TTL: 8})
	})
	n.Scheduler().At(16*time.Millisecond, func() {
		seenAt16 = n.PortUp(aNode, 0) // post-detection: down
		n.Send(aNode, 0, &packet.Packet{Size: 100, TTL: 8})
	})
	n.Scheduler().RunUntil(time.Second)

	if !seenAt12 {
		t.Error("PortUp false 2ms after failure with a 5ms detection delay")
	}
	if seenAt16 {
		t.Error("PortUp true 6ms after failure with a 5ms detection delay")
	}
	if len(sk.pkts) != 0 {
		t.Fatalf("delivered %d packets over a dead link", len(sk.pkts))
	}
	// The pre-detection packet black-holes in flight; the post-detection
	// one is locally dropped at the sender.
	if got := n.metrics.CounterValue("kar_net_drops_total", "reason", "in-flight"); got != 1 {
		t.Errorf("in-flight (black-hole) drops = %d, want 1", got)
	}
	if got := n.metrics.CounterValue("kar_net_drops_total", "reason", "link-down"); got != 1 {
		t.Errorf("link-down drops = %d, want 1", got)
	}
	if len(hookDowns) != 1 || hookDowns[0] != 15*time.Millisecond {
		t.Errorf("down detections at %v, want [15ms]", hookDowns)
	}
	if len(hookUps) != 1 || hookUps[0] != 23*time.Millisecond {
		t.Errorf("up detections at %v, want [23ms]", hookUps)
	}
	if got := n.metrics.CounterValue("kar_fault_detections_total", "state", "down"); got != 1 {
		t.Errorf("kar_fault_detections_total{state=down} = %d, want 1", got)
	}
}

// A flap shorter than the detection delay is never seen at all: the
// epoch guard cancels the stale detection, and the switches' view
// never changes.
func TestSubDetectionFlapInvisible(t *testing.T) {
	g := topology.New("pair")
	for _, name := range []string{"A", "B"} {
		if _, err := g.AddEdge(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Connect("A", "B"); err != nil {
		t.Fatal(err)
	}
	n := New(g, WithDetectionDelay(5*time.Millisecond, 5*time.Millisecond))
	aNode, _ := g.Node("A")
	link, _ := aNode.PortLink(0)
	hooks := 0
	n.SetLinkDetectionHook(func(*topology.Link, bool) { hooks++ })

	n.ScheduleFailure(link, 10*time.Millisecond, time.Millisecond) // repaired before detection
	down := false
	n.Scheduler().At(20*time.Millisecond, func() { down = !n.PortUp(aNode, 0) })
	n.Scheduler().RunUntil(time.Second)
	if down {
		t.Error("1ms flap under a 5ms detection delay flipped the detected state")
	}
	if hooks != 0 {
		t.Errorf("detection hook fired %d times for an undetectable flap", hooks)
	}
	if got := n.metrics.CounterValue("kar_fault_detections_total", "state", "down"); got != 0 {
		t.Errorf("detections counted for an undetectable flap: %d", got)
	}
}

// Gray drop impairment: packets vanish on a nominally-up link, counted
// under the kar_fault_* family and the "gray" net drop reason —
// distinct from queue and in-flight drops — while conservation holds.
func TestImpairmentGrayDrop(t *testing.T) {
	n, a, _, sk := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.SetImpairment(link, &Impairment{DropProb: 1.0, Rand: rand.New(rand.NewSource(7))})

	for i := 0; i < 10; i++ {
		i := i
		n.Scheduler().At(time.Duration(i)*time.Millisecond, func() {
			n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8, Seq: uint64(i)})
		})
	}
	n.Scheduler().RunUntil(time.Second)

	if len(sk.pkts) != 0 {
		t.Fatalf("delivered %d packets through a DropProb=1 impairment", len(sk.pkts))
	}
	if got := n.metrics.CounterValue("kar_fault_gray_drops_total", "link", link.Name()); got != 10 {
		t.Errorf("kar_fault_gray_drops_total = %d, want 10", got)
	}
	if got := n.metrics.CounterValue("kar_net_drops_total", "reason", "gray"); got != 10 {
		t.Errorf("kar_net_drops_total{reason=gray} = %d, want 10", got)
	}
	if got := n.metrics.CounterValue("kar_net_drops_total", "reason", "in-flight"); got != 0 {
		t.Errorf("gray drops leaked into in-flight accounting: %d", got)
	}
	if n.Delivered()+n.Metrics().SumCounter("kar_net_drops_total") != 10 {
		t.Errorf("conservation: delivered %d + dropped %d != 10", n.Delivered(), n.Metrics().SumCounter("kar_net_drops_total"))
	}

	// Clearing the impairment restores the line.
	n.SetImpairment(link, nil)
	n.Scheduler().After(time.Millisecond, func() {
		n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8, Seq: 99})
	})
	n.Scheduler().RunUntil(2 * time.Second)
	if len(sk.pkts) != 1 {
		t.Errorf("delivered %d packets after clearing the impairment, want 1", len(sk.pkts))
	}
}

// Regression for wire-width corruption: the impairment used to flip
// any of 64 bits, so a 4-byte route ID could come out of a link 8
// bytes long (or ≥ the route's modulus product) — a header no
// physical corruption can produce, since the wire carries only
// ByteLen bytes. The flip is now confined to the marshalled width.
func TestCorruptConfinedToWireWidth(t *testing.T) {
	n, a, _, sk := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.SetImpairment(link, &Impairment{CorruptProb: 1.0, Rand: rand.New(rand.NewSource(42))})

	// One-, two-, four- and eight-byte route IDs, many samples each.
	ids := []uint64{0x5A, 0xBEEF, 0xDEADBEEF, 1 << 62}
	const rounds = 32
	for i := 0; i < rounds*len(ids); i++ {
		i := i
		n.Scheduler().At(time.Duration(i)*time.Millisecond, func() {
			n.Send(a, 0, &packet.Packet{
				Size: 100, TTL: 8, Seq: uint64(i),
				RouteID: rns.RouteIDFromUint64(ids[i%len(ids)]),
			})
		})
	}
	n.Scheduler().RunUntil(time.Minute)

	if len(sk.pkts) != rounds*len(ids) {
		t.Fatalf("delivered %d packets, want %d", len(sk.pkts), rounds*len(ids))
	}
	for _, p := range sk.pkts {
		orig := ids[p.Seq%uint64(len(ids))]
		origLen := rns.RouteIDFromUint64(orig).ByteLen()
		got, ok := p.RouteID.Uint64()
		if !ok {
			t.Fatalf("seq %d: corrupted ID no longer uint64-representable", p.Seq)
		}
		if diff := got ^ orig; diff == 0 || diff&(diff-1) != 0 {
			t.Errorf("seq %d: %x differs from %x by %x, want one flipped bit", p.Seq, got, orig, diff)
		}
		if gotLen := p.RouteID.ByteLen(); gotLen > origLen {
			t.Errorf("seq %d: corruption grew route ID from %d to %d bytes", p.Seq, origLen, gotLen)
		}
	}
}

// A zero-width route ID has no wire bit to flip: the corruption path
// must gray-drop instead of panicking in Intn(0).
func TestCorruptZeroWidthIDGrayDrops(t *testing.T) {
	n, a, _, sk := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.SetImpairment(link, &Impairment{CorruptProb: 1.0, Rand: rand.New(rand.NewSource(1))})

	n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8}) // zero RouteID
	n.Scheduler().RunUntil(time.Second)

	if len(sk.pkts) != 0 {
		t.Fatalf("delivered %d packets, want 0 (zero-width ID gray-drops)", len(sk.pkts))
	}
	if got := n.metrics.CounterValue("kar_fault_gray_drops_total", "link", link.Name()); got != 1 {
		t.Errorf("kar_fault_gray_drops_total = %d, want 1", got)
	}
}

// Reentrancy contract: the detection hook runs as its own scheduler
// event, after the transition that triggered it has fully completed,
// so it may call back into the Network (LinkSeenUp, further
// acquire/release) without recursing into the dispatch path. The hook
// below bounces the link a few times from inside itself; each
// notification must agree with the queryable detected state.
func TestDetectionHookReentrantCallback(t *testing.T) {
	n, _, _, _ := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)

	cycles := 0
	var states []bool
	n.SetLinkDetectionHook(func(l *topology.Link, up bool) {
		states = append(states, up)
		if n.LinkSeenUp(l) != up {
			t.Errorf("hook(up=%v) disagrees with LinkSeenUp=%v", up, n.LinkSeenUp(l))
		}
		if up {
			if cycles < 3 {
				cycles++
				n.AcquireLinkDown(l)
			}
		} else {
			n.ReleaseLinkDown(l)
		}
	})

	n.Scheduler().At(time.Millisecond, func() { n.AcquireLinkDown(link) })
	n.Scheduler().RunUntil(time.Second)

	// Initial acquire plus 3 hook-driven bounces: 4 downs, 4 ups.
	want := []bool{false, true, false, true, false, true, false, true}
	if len(states) != len(want) {
		t.Fatalf("hook fired %d times (%v), want %d", len(states), states, len(want))
	}
	for i, up := range want {
		if states[i] != up {
			t.Fatalf("hook sequence %v, want %v", states, want)
		}
	}
	if !n.LinkUp(link) {
		t.Error("link down after the last bounce released its hold")
	}
}

// The hook must never observe a multi-link transition half-applied: a
// batch of acquires in one virtual instant (a switch crash taking
// every port down) completes before any notification runs.
func TestDetectionHookSeesCompletedBatch(t *testing.T) {
	g := topology.New("tri")
	for _, name := range []string{"A", "B", "C"} {
		if _, err := g.AddEdge(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Connect("A", "B"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect("A", "C"); err != nil {
		t.Fatal(err)
	}
	n := New(g)
	ab, _ := g.LinkBetween("A", "B")
	ac, _ := g.LinkBetween("A", "C")

	hooks := 0
	n.SetLinkDetectionHook(func(l *topology.Link, up bool) {
		hooks++
		if n.LinkUp(ab) || n.LinkUp(ac) {
			t.Errorf("hook for %s ran mid-batch: ab up=%v ac up=%v",
				l.Name(), n.LinkUp(ab), n.LinkUp(ac))
		}
	})
	n.Scheduler().At(time.Millisecond, func() {
		n.AcquireLinkDown(ab)
		n.AcquireLinkDown(ac)
	})
	n.Scheduler().RunUntil(10 * time.Millisecond)
	if hooks != 2 {
		t.Errorf("hook fired %d times, want 2 (one per link)", hooks)
	}
}

// A non-positive ScheduleFailure duration means "down for the rest of
// the run" — it used to schedule an immediate release, reducing the
// failure to a same-instant blip.
func TestScheduleFailurePermanent(t *testing.T) {
	n, a, _, sk := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)

	n.ScheduleFailure(link, time.Millisecond, 0)
	var at10 bool
	n.Scheduler().At(10*time.Millisecond, func() {
		at10 = n.LinkUp(link)
		n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8})
	})
	n.Scheduler().RunUntil(time.Second)

	if at10 {
		t.Error("link up 9ms after a permanent (duration<=0) failure")
	}
	if len(sk.pkts) != 0 {
		t.Errorf("delivered %d packets over a permanently failed link", len(sk.pkts))
	}
}

// Corruption impairment: the packet still arrives but with one route-ID
// bit flipped, counted under kar_fault_corrupted_total.
func TestImpairmentCorruptsRouteID(t *testing.T) {
	n, a, _, sk := twoNodeNet(t)
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.SetImpairment(link, &Impairment{CorruptProb: 1.0, Rand: rand.New(rand.NewSource(7))})

	const orig = uint64(0xDEADBEEF)
	n.Send(a, 0, &packet.Packet{Size: 100, TTL: 8, RouteID: rns.RouteIDFromUint64(orig)})
	n.Scheduler().RunUntil(time.Second)

	if len(sk.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1 (corruption must not drop)", len(sk.pkts))
	}
	got, ok := sk.pkts[0].RouteID.Uint64()
	if !ok {
		t.Fatal("corrupted route ID no longer uint64-representable")
	}
	if diff := got ^ orig; diff == 0 || diff&(diff-1) != 0 {
		t.Errorf("route ID %x differs from %x by %x, want exactly one flipped bit", got, orig, diff)
	}
	if c := n.metrics.CounterValue("kar_fault_corrupted_total", "link", link.Name()); c != 1 {
		t.Errorf("kar_fault_corrupted_total = %d, want 1", c)
	}
}
