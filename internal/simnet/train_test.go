package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/topology"
)

// relay forwards everything out a fixed port — a stand-in for a switch
// that keeps these tests free of higher-layer dependencies while still
// exercising re-enqueue-from-delivery (members appended to an active
// train from inside stepTrain).
type relay struct {
	n    *Network
	node *topology.Node
	port int
}

func (r *relay) HandlePacket(pkt *packet.Packet, inPort int) {
	r.n.Send(r.node, r.port, pkt)
}

// chainWorld is a three-node line A—B—C: bursty ingress at A, a relay
// at B, a recording sink at C, and a drop log capturing every loss in
// delivery order. The B—C link has a small queue so overload tail-drops.
type chainWorld struct {
	n      *Network
	a      *topology.Node
	linkAB *topology.Link
	linkBC *topology.Link
	sink   *sink
	log    *dropLog
}

func newChainWorld(t *testing.T, scalar bool) *chainWorld {
	t.Helper()
	g := topology.New("chain")
	if _, err := g.AddEdge("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddCore("B", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("C"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect("A", "B", topology.WithRateMbps(100), topology.WithDelay(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect("B", "C", topology.WithRateMbps(20), topology.WithDelay(2*time.Millisecond), topology.WithQueuePackets(16)); err != nil {
		t.Fatal(err)
	}
	var opts []Option
	if scalar {
		opts = append(opts, WithScalarDataPlane())
	}
	n := New(g, opts...)
	a, _ := g.Node("A")
	b, _ := g.Node("B")
	c, _ := g.Node("C")
	w := &chainWorld{n: n, a: a, sink: &sink{sched: n.Scheduler()}}
	w.linkAB, _ = a.PortLink(0)
	// B's port toward C is whichever port is not the A link.
	fwd := 1
	if l, _ := b.PortLink(0); l != w.linkAB {
		fwd = 0
	}
	w.linkBC, _ = b.PortLink(fwd)
	n.Bind(b, &relay{n: n, node: b, port: fwd})
	n.Bind(c, w.sink)
	w.log = logDrops(n)
	return w
}

// burst schedules k back-to-back sends from A at t (a train of k).
func (w *chainWorld) burst(t time.Duration, firstSeq uint64, k int) {
	w.n.Scheduler().At(t, func() {
		for i := 0; i < k; i++ {
			w.n.Send(w.a, 0, &packet.Packet{
				Size:    1250,
				TTL:     16,
				Seq:     firstSeq + uint64(i),
				Sampled: true,
				RouteID: rns.RouteIDFromUint64(0xABCD_0000 + firstSeq + uint64(i)),
			})
		}
	})
}

// runFaultGauntlet drives the same mixed workload — bursts, a failure
// window cutting trains mid-flight, a gray window dropping and
// corrupting members, queue overload — through one world.
func runFaultGauntlet(w *chainWorld, seed int64) {
	sched := w.n.Scheduler()
	w.burst(0, 0, 30) // overloads the 16-slot B—C queue
	w.burst(3*time.Millisecond, 100, 20)
	w.n.ScheduleFailure(w.linkBC, 5*time.Millisecond, 2*time.Millisecond)
	sched.At(10*time.Millisecond, func() {
		w.n.SetImpairment(w.linkAB, &Impairment{
			DropProb: 0.3, CorruptProb: 0.3, Rand: rand.New(rand.NewSource(seed)),
		})
	})
	w.burst(10*time.Millisecond+time.Microsecond, 200, 30)
	sched.At(15*time.Millisecond, func() { w.n.SetImpairment(w.linkAB, nil) })
	w.burst(20*time.Millisecond, 300, 10)
	sched.RunUntil(100 * time.Millisecond)
}

// TestBatchScalarByteIdentical is the package-level identity gate: the
// fault gauntlet must produce the same deliveries (seq, time, hops),
// the same drops (reason, time, order) and a byte-identical metrics
// dump in batched and scalar modes.
func TestBatchScalarByteIdentical(t *testing.T) {
	batch := newChainWorld(t, false)
	scalar := newChainWorld(t, true)
	runFaultGauntlet(batch, 42)
	runFaultGauntlet(scalar, 42)

	if len(batch.sink.pkts) != len(scalar.sink.pkts) {
		t.Fatalf("delivered: batch %d, scalar %d", len(batch.sink.pkts), len(scalar.sink.pkts))
	}
	for i := range batch.sink.pkts {
		bp, sp := batch.sink.pkts[i], scalar.sink.pkts[i]
		if bp.Seq != sp.Seq || bp.Hops != sp.Hops || batch.sink.times[i] != scalar.sink.times[i] {
			t.Fatalf("delivery %d: batch (seq=%d hops=%d at=%v), scalar (seq=%d hops=%d at=%v)",
				i, bp.Seq, bp.Hops, batch.sink.times[i], sp.Seq, sp.Hops, scalar.sink.times[i])
		}
		if bid, sid := bp.RouteID.String(), sp.RouteID.String(); bid != sid {
			t.Fatalf("delivery %d (seq %d): route ID batch %s, scalar %s (corruption divergence)",
				i, bp.Seq, bid, sid)
		}
	}
	if len(batch.log.drops) != len(scalar.log.drops) {
		t.Fatalf("drops: batch %d (%v), scalar %d (%v)",
			len(batch.log.drops), batch.log.seqs(), len(scalar.log.drops), scalar.log.seqs())
	}
	for i := range batch.log.drops {
		bd, sd := batch.log.drops[i], scalar.log.drops[i]
		if bd.Reason != sd.Reason || bd.Packet.Seq != sd.Packet.Seq || bd.Where != sd.Where || bd.At != sd.At {
			t.Fatalf("drop %d: batch {%v seq=%d at=%v %s}, scalar {%v seq=%d at=%v %s}",
				i, bd.Reason, bd.Packet.Seq, bd.At, bd.Where, sd.Reason, sd.Packet.Seq, sd.At, sd.Where)
		}
	}

	var bDump, sDump strings.Builder
	if err := batch.n.Metrics().WritePrometheus(&bDump); err != nil {
		t.Fatal(err)
	}
	if err := scalar.n.Metrics().WritePrometheus(&sDump); err != nil {
		t.Fatal(err)
	}
	if bDump.String() != sDump.String() {
		t.Errorf("metrics dumps differ between batch and scalar modes:\n--- batch ---\n%s\n--- scalar ---\n%s",
			bDump.String(), sDump.String())
	}
	if p := batch.n.Scheduler().Pending(); p != 0 {
		t.Errorf("batch scheduler leaks %d pending items", p)
	}

	// Guard against a vacuous gauntlet: every fault class must have
	// actually fired, or the identity above proves nothing.
	seen := map[DropReason]bool{}
	for _, d := range batch.log.drops {
		seen[d.Reason] = true
	}
	for _, want := range []DropReason{DropInFlight, DropGray, DropQueueFull} {
		if !seen[want] {
			t.Errorf("gauntlet produced no %v drops — fault coverage is vacuous", want)
		}
	}
	if c := batch.n.Metrics().CounterValue("kar_fault_corrupted_total", "link", batch.linkAB.Name()); c == 0 {
		t.Error("gauntlet corrupted no packets — corruption coverage is vacuous")
	}
}

// TestTrainSplitOnFailure pins the fault-exactness contract with
// hand-computed expectations: five back-to-back packets on a 10 ms
// link (125 µs serialization each) with the link failing at 5 ms. All
// five start transmission before the failure, so every one is killed
// in flight — and the kill happens at each member's own delivery
// instant, not when the train is split.
func TestTrainSplitOnFailure(t *testing.T) {
	n, a, _, sk := twoNodeNet(t, topology.WithRateMbps(80), topology.WithDelay(10*time.Millisecond))
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	for i := 0; i < 5; i++ {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: uint64(i)})
	}
	n.Scheduler().At(5*time.Millisecond, func() { n.FailLink(link) })
	n.Scheduler().RunUntil(time.Second)

	if len(sk.pkts) != 0 {
		t.Errorf("delivered %d packets, want 0 (all in flight at failure)", len(sk.pkts))
	}
	if n.Dropped() != 5 || dropsBy(n, DropInFlight) != 5 {
		t.Fatalf("dropped %d packets, %d of them in flight, want 5 and 5", n.Dropped(), dropsBy(n, DropInFlight))
	}
	if st := n.LineStats(link); st.InFlightDrops != 5 {
		t.Errorf("InFlightDrops = %d, want 5", st.InFlightDrops)
	}
}

// TestTrainSurvivorsAfterRepair: members whose transmission starts
// after the repair deliver normally even though earlier members of
// the same burst schedule were killed — the per-member txStart check.
func TestTrainSurvivorsAfterRepair(t *testing.T) {
	n, a, _, sk := twoNodeNet(t, topology.WithRateMbps(80), topology.WithDelay(time.Millisecond))
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.ScheduleFailure(link, 2*time.Millisecond, time.Millisecond)

	// 125 µs serialization each: seq i delivers at (i+1)·125 µs + 1 ms.
	// The failure event at 2 ms outranks seq 7's same-instant delivery
	// (it was scheduled first), so seqs 7..15 are killed in flight and
	// only 0..6 land.
	for i := 0; i < 16; i++ {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: uint64(i)})
	}
	// Sent during the outage: dropped at send.
	n.Scheduler().At(2500*time.Microsecond, func() {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: 90})
	})
	// Sent after repair: delivered.
	n.Scheduler().At(4*time.Millisecond, func() {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: 91})
	})
	n.Scheduler().RunUntil(time.Second)

	wantDelivered := map[uint64]bool{}
	for i := 0; i < 7; i++ {
		wantDelivered[uint64(i)] = true
	}
	wantDelivered[91] = true
	if len(sk.pkts) != len(wantDelivered) {
		t.Fatalf("delivered %d packets, want %d", len(sk.pkts), len(wantDelivered))
	}
	for _, p := range sk.pkts {
		if !wantDelivered[p.Seq] {
			t.Errorf("seq %d delivered, should have been dropped", p.Seq)
		}
	}
	st := n.LineStats(link)
	if st.InFlightDrops != 9 {
		t.Errorf("InFlightDrops = %d, want 9 (seqs 7..15)", st.InFlightDrops)
	}
}

// TestBatchQueueDrainExactness: in batch mode queue releases are
// implicit (drained lazily), so occupancy at the moment of a same-
// instant enqueue must still match scalar semantics. Equal-instant
// order is fixed by the entity tie-break keys: control callbacks
// (entity 0) run before any line-direction event of the same instant,
// so a send fired at exactly the release time still sees the slot
// occupied, while a send any later sees it free — identically in both
// data planes and for any shard count.
func TestBatchQueueDrainExactness(t *testing.T) {
	for _, scalar := range []bool{false, true} {
		name := "batch"
		if scalar {
			name = "scalar"
		}
		t.Run(name, func(t *testing.T) {
			g := topology.New("pair")
			if _, err := g.AddEdge("A"); err != nil {
				t.Fatal(err)
			}
			if _, err := g.AddEdge("B"); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Connect("A", "B",
				topology.WithRateMbps(100), topology.WithDelay(time.Millisecond),
				topology.WithQueuePackets(3)); err != nil {
				t.Fatal(err)
			}
			var opts []Option
			if scalar {
				opts = append(opts, WithScalarDataPlane())
			}
			n := New(g, opts...)
			a, _ := g.Node("A")
			b, _ := g.Node("B")
			sk := &sink{sched: n.Scheduler()}
			n.Bind(b, sk)
			// Fill the queue, then probe both sides of the release
			// boundary (100 µs serialization per packet): a control
			// callback at exactly the release instant dispatches before
			// the release (entity 0 sorts first), so its send still
			// tail-drops; one nanosecond later the slot has freed.
			for i := 0; i < 3; i++ {
				n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: uint64(i)})
			}
			n.Scheduler().At(100*time.Microsecond, func() {
				n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: 10})
			})
			n.Scheduler().At(100*time.Microsecond+time.Nanosecond, func() {
				n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: 11})
			})
			n.Scheduler().RunUntil(time.Second)
			if len(sk.pkts) != 4 {
				t.Errorf("delivered %d packets, want 4 (seqs 0-2 and the post-release send)", len(sk.pkts))
			}
			for _, p := range sk.pkts {
				if p.Seq == 10 {
					t.Errorf("seq 10 delivered; a send at exactly the release instant must tail-drop")
				}
			}
			if qDrops := dropsBy(n, DropQueueFull); qDrops != 1 {
				t.Errorf("queue drops = %d, want 1 (the at-boundary send)", qDrops)
			}
			if p := n.Pending(); p != 0 {
				t.Errorf("%d items pending after a drained run", p)
			}
		})
	}
	t.Run("cut-link", testCutLinkQueueDrain)
}

// testCutLinkQueueDrain saturates the four-slot C2—C3 link of the
// six-node chain from both sides — bursts handed straight to its two
// senders, among them one at exactly a release instant (48 µs per
// packet) and one a nanosecond after, plus end-to-end traffic crossing
// it — and requires the same tail drops and arrival instants whether
// the link is a cut link (shards=2, where its deliveries are heap
// events in both planes and its queue record is the only thing the two
// lanes' sends consult) or not, batched or scalar.
func testCutLinkQueueDrain(t *testing.T) {
	run := func(shards int, scalar bool) (chainRun, int64) {
		w := newShardChainCutQueue(t, shards, scalar, 4)
		c2, c3 := w.relays[1].node, w.relays[2].node
		seq := uint64(0)
		burst := func(at time.Duration, k int) {
			first := seq
			seq += uint64(2 * k)
			w.n.Scheduler().At(at, func() {
				for i := 0; i < k; i++ {
					w.n.Send(c2, 1, &packet.Packet{Size: 600, TTL: 16, Seq: first + uint64(i)})
					w.n.Send(c3, 0, &packet.Packet{Size: 600, TTL: 16, Seq: first + uint64(k+i)})
				}
			})
		}
		burst(0, 12)
		burst(96*time.Microsecond, 3)
		burst(96*time.Microsecond+time.Nanosecond, 3)
		w.burst(w.e0, 100*time.Microsecond, 100, 20)
		w.burst(w.e1, 100*time.Microsecond, 200, 20)
		burst(900*time.Microsecond, 12)
		w.n.RunUntil(20 * time.Millisecond)
		if p := w.n.Pending(); p != 0 {
			t.Errorf("shards=%d scalar=%v: %d items pending after a drained run", shards, scalar, p)
		}
		return w.result(t), w.n.LineStats(w.cut).QueueDrops
	}
	ref, drops := run(1, true)
	// By hand, per direction: the first burst fills 4 slots and drops 8;
	// at 96 µs one slot has been released (the second release is due at
	// this very instant, after the control event), so 1 of 3 is taken;
	// a nanosecond later exactly one more is free.
	if drops < 2*(8+2+2) {
		t.Fatalf("cut link tail-dropped %d packets, want at least %d", drops, 2*(8+2+2))
	}
	if len(ref.seq0) == 0 || len(ref.seq1) == 0 {
		t.Fatalf("reference run delivered nothing (E0 %d, E1 %d)", len(ref.seq0), len(ref.seq1))
	}
	for _, shards := range []int{1, 2} {
		for _, scalar := range []bool{false, true} {
			got, gotDrops := run(shards, scalar)
			if gotDrops != drops {
				t.Errorf("shards=%d scalar=%v: %d queue drops on the cut link, want %d", shards, scalar, gotDrops, drops)
			}
			checkRunsEqual(t, fmt.Sprintf("shards=%d scalar=%v", shards, scalar), ref, got)
		}
	}
}

// TestTrainLaneHeapOrder drives a bare scheduler's queue with train
// heads only: random appends (activating idle trains, extending active
// ones) and root advances (re-keying the root, or retiring an exhausted
// train) against a sorted reference: members must come out in (at, key)
// order and Pending must count exactly the undelivered ones. Entries
// hold keys by value and trains carry no back-pointer, so this is the
// check that only-the-root-moves is really all a train needs.
func TestTrainLaneHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newQueueModel(t, 1+rng.Intn(40)) // queue_test.go
		for op := 0; op < 4000; op++ {
			if len(m.want) == 0 || rng.Intn(5) < 2 {
				m.extend(rng.Intn(len(m.trs)), m.now+time.Duration(rng.Intn(50)))
			} else {
				m.pop()
			}
			m.check()
		}
		active := 0
		for i := range m.trs {
			if m.trs[i].active {
				active++
			}
		}
		if queued := m.s.Pending() - m.s.trainExtra; active != queued {
			t.Fatalf("seed %d: %d active train flags, queue holds %d heads", seed, active, queued)
		}
	}
}
