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
	if p := batch.n.Pending(); p != 0 {
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
	if n.Metrics().SumCounter("kar_net_drops_total") != 5 || dropsBy(n, DropInFlight) != 5 {
		t.Fatalf("dropped %d packets, %d of them in flight, want 5 and 5", n.Metrics().SumCounter("kar_net_drops_total"), dropsBy(n, DropInFlight))
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

// TestTrainRingWrapsAndGrows holds a direction's ring to the member
// order it was pushed in, through the real push, trainNext and
// drainDeq: the live region wraps past the end of a full 4-slot ring,
// then a push doubles it while that region straddles the end — once
// with the lazy releases behind the deliveries, once ahead of them.
func TestTrainRingWrapsAndGrows(t *testing.T) {
	const delay = time.Millisecond
	// Member i is delivered at delay + (i+1) µs and released (i+1) µs.
	deliverAt := func(i int) time.Duration { return delay + time.Duration(i+1)*time.Microsecond }
	for _, c := range []struct {
		name          string
		prepare       func(push, pop, release func(int)) // leaves a full ring wrapping its end
		head, deqHead int
	}{
		{"deq-behind-head", func(push, pop, release func(int)) {
			push(4)
			pop(3)
			release(3)
			push(3)
			pop(2) // delivered, not yet released
		}, 5, 3},
		{"deq-ahead-of-head", func(push, pop, release func(int)) {
			push(4)
			pop(1)
			release(1)
			push(1)
			release(3) // released, not yet delivered
		}, 1, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newQueueModel(t, 1) // queue_test.go
			tr := &m.dirs[0].train
			line := &Line{delay: delay}
			var keys []uint64 // by member counter
			push := func(k int) {
				for range k {
					m.extend(0, deliverAt(tr.tail))
					keys = append(keys, m.key)
				}
			}
			pop := func(k int) {
				for range k {
					m.pop()
				}
			}
			release := func(upTo int) { line.drainDeq(tr, deliverAt(upTo-1)-delay+1, 0) }
			live := func(want int) {
				t.Helper()
				lo := min(tr.head, tr.deqHead)
				if n := tr.tail - lo; n != want {
					t.Fatalf("%d live members, want %d", n, want)
				}
				for i := lo; i < tr.tail; i++ {
					if got := tr.at(i).key; got != keys[i] {
						t.Fatalf("member %d holds key %d, want %d", i, got, keys[i])
					}
				}
			}
			c.prepare(push, pop, release)
			if tr.head != c.head || tr.deqHead != c.deqHead {
				t.Fatalf("head %d, deqHead %d; want %d, %d", tr.head, tr.deqHead, c.head, c.deqHead)
			}
			lo := min(tr.head, tr.deqHead)
			if len(tr.members) != 4 || tr.tail-lo != 4 || lo&3 <= (tr.tail-1)&3 {
				t.Fatalf("ring of %d holds [%d, %d): want a full 4-slot ring wrapping its end", len(tr.members), lo, tr.tail)
			}
			live(4)
			push(1)
			if len(tr.members) != 8 {
				t.Fatalf("a push onto a full ring left %d slots, want 8", len(tr.members))
			}
			live(5)
			// The moved members release exactly as before the move.
			release(tr.tail)
			if tr.deqHead != tr.tail || tr.pendingQueue() != 0 {
				t.Fatalf("deqHead %d after releasing through %d", tr.deqHead, tr.tail)
			}
			m.drain()
			if p := m.s.Pending(); p != 0 || tr.head != tr.tail {
				t.Fatalf("drained train: %d queue entries, head %d, tail %d", p, tr.head, tr.tail)
			}
		})
	}
}

// loopback sends every packet it receives back into its link from the
// far end, so that direction carries the same packets forever and its
// train never goes idle.
type loopback struct {
	n    *Network
	from *topology.Node
	left int
	got  int
}

func (l *loopback) HandlePacket(pkt *packet.Packet, _ int) {
	l.got++
	if l.left > 0 {
		l.left--
		l.n.Send(l.from, 0, pkt)
	}
}

// TestTrainRingHoldsOnlyItsWire: a direction that stays busy for more
// than 10 000 packets with at most 8 on it holds a ring of at most 16
// slots — what is on its wire, not its busy period — forwards without
// allocating, and once drained pins no packet in any slot.
func TestTrainRingHoldsOnlyItsWire(t *testing.T) {
	for _, scalar := range []bool{false, true} {
		t.Run(fmt.Sprintf("scalar=%v", scalar), func(t *testing.T) {
			g := topology.New("pair")
			if _, err := g.AddEdge("A"); err != nil {
				t.Fatal(err)
			}
			if _, err := g.AddEdge("B"); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Connect("A", "B", topology.WithRateMbps(1000), topology.WithDelay(100*time.Microsecond)); err != nil {
				t.Fatal(err)
			}
			var opts []Option
			if scalar {
				opts = append(opts, WithScalarDataPlane())
			}
			n := New(g, opts...)
			a, _ := g.Node("A")
			b, _ := g.Node("B")
			lb := &loopback{n: n, from: a, left: 1 << 30}
			n.Bind(b, lb)
			for i := 0; i < 8; i++ {
				n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: uint64(i)})
			}
			line, dir := n.LineAt(a, 0)
			tr := &line.dirs[dir].train
			n.RunUntil(200 * time.Millisecond)
			if lb.got < 10_000 {
				t.Fatalf("%d packets crossed, want ≥ 10 000", lb.got)
			}
			t.Logf("%d packets, ring of %d slots", lb.got, len(tr.members))
			if len(tr.members) > 16 {
				t.Errorf("ring of %d slots for at most 8 packets on the wire, want ≤ 16", len(tr.members))
			}
			if allocs := testing.AllocsPerRun(20, func() {
				n.RunUntil(n.Scheduler().Now() + time.Millisecond)
			}); allocs != 0 {
				t.Errorf("a millisecond of steady forwarding allocates %v times, want 0", allocs)
			}
			lb.left = 0
			n.RunUntil(n.Scheduler().Now() + time.Second)
			if p := n.Pending(); p != 0 {
				t.Fatalf("%d items pending after a drained run", p)
			}
			checkRingsUnpinned(t, n)
		})
	}
}

// TestTrainRingOnCutDirections overloads the six-node chain from both
// ends for 40 ms, so every direction is busy for hundreds of packets
// (the edge links with their 32-slot queues full), in a world where
// the C2—C3 directions are cut ones (shards=2) and where they are not.
// Every ring holds at most 64 slots — queue plus wire, rounded up to a
// power of two — and none pins a packet once the run has drained.
func TestTrainRingOnCutDirections(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, scalar := range []bool{false, true} {
			w := newShardChain(t, shards, scalar)
			for _, e := range []*topology.Node{w.e0, w.e1} {
				e, clk := e, w.n.ClockOf(e)
				var tick func()
				tick = func() {
					for i := 0; i < 4; i++ { // 192 Mb/s into 100 Mb/s links
						p := clk.NewPacket()
						p.Size, p.TTL = 600, 16
						w.n.Send(e, 0, p)
					}
					if clk.Now() < 40*time.Millisecond {
						clk.After(100*time.Microsecond, tick)
					}
				}
				clk.At(0, tick)
			}
			w.n.RunUntil(100 * time.Millisecond)
			if p := w.n.Pending(); p != 0 {
				t.Fatalf("shards=%d scalar=%v: %d items pending after a drained run", shards, scalar, p)
			}
			// 40 ms at 100 Mb/s is 833 packets of 600 B a direction.
			if sent := w.n.LineStats(w.cut).SentPackets; sent < 1600 {
				t.Fatalf("shards=%d scalar=%v: C2—C3 carried %d packets, want a busy link (≥ 1600)", shards, scalar, sent)
			}
			for i := range w.n.lines {
				line := &w.n.lines[i]
				for d := range line.dirs {
					if sz := len(line.dirs[d].train.members); sz > 64 {
						t.Errorf("shards=%d scalar=%v: %s dir %d holds a ring of %d slots, want ≤ 64", shards, scalar, line.link.Name(), d, sz)
					}
				}
			}
			checkRingsUnpinned(t, w.n)
		}
	}
}

// checkRingsUnpinned fails if any ring slot of n still references a
// packet: a drained world's packets are delivered or recycled, and a
// slot holding one would keep it from the collector or alias a reuse.
func checkRingsUnpinned(t *testing.T, n *Network) {
	t.Helper()
	for i := range n.lines {
		line := &n.lines[i]
		for d := range line.dirs {
			for i, m := range line.dirs[d].train.members {
				if m.pkt != nil {
					t.Errorf("%s dir %d: slot %d still holds a packet", line.link.Name(), d, i)
				}
			}
		}
	}
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
// order, and the queue must hold exactly one entry per train with
// undelivered members (head < tail). Entries hold keys by value and
// trains carry no back-pointer, so this is the check that
// only-the-root-moves is really all a train needs.
func TestTrainLaneHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newQueueModel(t, 1+rng.Intn(40)) // queue_test.go
		for op := 0; op < 4000; op++ {
			if len(m.want) == 0 || rng.Intn(5) < 2 {
				m.extend(rng.Intn(len(m.dirs)), m.now+time.Duration(rng.Intn(50)))
			} else {
				m.pop()
			}
			m.check()
		}
		busy := 0
		for i := range m.dirs {
			if tr := &m.dirs[i].train; tr.head < tr.tail {
				busy++
			}
		}
		if queued := m.s.Pending(); busy != queued {
			t.Fatalf("seed %d: %d trains with undelivered members, queue holds %d heads", seed, busy, queued)
		}
	}
}

// TestNetworkPendingCountsInFlight holds Network.Pending against a
// count it does not share code with: in a healthy world nothing is
// dropped, so every packet sent and not yet delivered is pending, and
// so is every control callback the test posted that has not run.
// Inside a control callback (all lanes parked) the two must agree with
// bursts in flight, at shards 1 (every direction a train) and 2 (the
// core links cut, their deliveries queue entries of their own).
func TestNetworkPendingCountsInFlight(t *testing.T) {
	for _, shards := range []int{1, 2} {
		w := newShardChain(t, shards, false) // shard_test.go
		posted, ran := 0, 0
		at := func(when time.Duration, fn func()) {
			posted++
			w.n.Scheduler().At(when, func() { ran++; fn() })
		}
		send := func(node *topology.Node, firstSeq uint64, k int) {
			for i := 0; i < k; i++ {
				w.n.Send(node, 0, &packet.Packet{
					Size: 600, TTL: 16, Seq: firstSeq + uint64(i),
					RouteID: rns.RouteIDFromUint64(0x5AD_0000 + firstSeq + uint64(i)),
				})
			}
		}
		readings, longest := 0, 0
		read := func() {
			m := w.n.Metrics()
			inFlight := m.SumCounter("kar_net_sends_total") - m.SumCounter("kar_net_delivered_total")
			if got, want := w.n.Pending(), int(inFlight)+posted-ran; got != want {
				t.Errorf("shards=%d at %v: Pending() = %d, want %d in flight + %d callbacks",
					shards, w.n.Scheduler().Now(), got, inFlight, posted-ran)
			}
			for i := range w.n.lines {
				for d := range w.n.lines[i].dirs {
					if ds := &w.n.lines[i].dirs[d]; !ds.noBatch {
						longest = max(longest, ds.train.tail-ds.train.head)
					}
				}
			}
			readings++
		}
		at(0, func() { send(w.e0, 100, 8) })
		at(100*time.Microsecond, func() { send(w.e1, 300, 6) })
		at(900*time.Microsecond, func() { send(w.e0, 400, 5) })
		for when := 50 * time.Microsecond; when < 3*time.Millisecond; when += 130 * time.Microsecond {
			at(when, read)
		}
		w.n.RunUntil(10 * time.Millisecond)
		read()
		if got := len(w.s0.seqs) + len(w.s1.seqs); got != 19 {
			t.Fatalf("shards=%d: %d of 19 packets delivered: the world must be healthy", shards, got)
		}
		if longest < 4 {
			t.Fatalf("shards=%d: no reading saw a train of more than %d members: the ring term went untested", shards, longest)
		}
		if w.n.Pending() != 0 || readings < 20 {
			t.Fatalf("shards=%d: %d pending after the run, %d readings", shards, w.n.Pending(), readings)
		}
	}
}
