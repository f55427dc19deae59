package simnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/topology"
)

// The sharded engine's contract is byte-identity: the same seed and
// the same injection schedule must produce the same deliveries, the
// same arrival instants and the same metric dump for every shard
// count, every worker interleaving, and both data planes. These tests
// pin that contract on a topology small enough to reason about by
// hand: a six-node line
//
//	E0 — C1 — C2 — C3 — C4 — E1
//
// whose middle links have distinct propagation delays, so cut-link
// sets (and therefore lookahead windows) differ per shard count.

// lineRelay forwards along the line: whatever arrives on one port
// leaves on the other. Supports traffic in both directions, so
// cross-shard outboxes are exercised both ways.
type lineRelay struct {
	n       *Network
	node    *topology.Node
	handled int64
}

func (r *lineRelay) HandlePacket(pkt *packet.Packet, inPort int) {
	r.handled++
	out := 0
	if inPort == 0 {
		out = 1
	}
	r.n.Send(r.node, out, pkt)
}

// laneSink records deliveries with the owning lane's clock — the only
// clock a handler may read in a sharded world.
type laneSink struct {
	clk  Clock
	seqs []uint64
	ats  []time.Duration
}

func (s *laneSink) HandlePacket(pkt *packet.Packet, inPort int) {
	s.seqs = append(s.seqs, pkt.Seq)
	s.ats = append(s.ats, s.clk.Now())
	s.clk.Recycle(pkt)
}

type shardChain struct {
	n      *Network
	e0, e1 *topology.Node
	cut    *topology.Link // C2—C3: the lone cut link at shards=2
	s0, s1 *laneSink
	relays []*lineRelay
}

func newShardChain(t *testing.T, shards int, scalar bool) *shardChain {
	t.Helper()
	return newShardChainCutQueue(t, shards, scalar, 32)
}

// newShardChainCutQueue builds the chain with cutQueue transmission-
// queue slots per direction of the C2—C3 link (32 on every other).
func newShardChainCutQueue(t *testing.T, shards int, scalar bool, cutQueue int) *shardChain {
	t.Helper()
	g := topology.New("shardchain")
	if _, err := g.AddEdge("E0"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C1", "C2", "C3", "C4"} {
		if _, err := g.AddCore(name, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddEdge("E1"); err != nil {
		t.Fatal(err)
	}
	type hop struct {
		a, b  string
		delay time.Duration
	}
	hops := []hop{
		{"E0", "C1", 200 * time.Microsecond},
		{"C1", "C2", 500 * time.Microsecond},
		{"C2", "C3", 300 * time.Microsecond},
		{"C3", "C4", 400 * time.Microsecond},
		{"C4", "E1", 250 * time.Microsecond},
	}
	var cut *topology.Link
	for _, h := range hops {
		queue := 32
		if h.a == "C2" {
			queue = cutQueue
		}
		l, err := g.Connect(h.a, h.b,
			topology.WithRateMbps(100),
			topology.WithDelay(h.delay),
			topology.WithQueuePackets(queue))
		if err != nil {
			t.Fatal(err)
		}
		if h.a == "C2" {
			cut = l
		}
	}
	opts := []Option{WithShards(shards)}
	if scalar {
		opts = append(opts, WithScalarDataPlane())
	}
	n := New(g, opts...)
	w := &shardChain{n: n, cut: cut}
	w.e0, _ = g.Node("E0")
	w.e1, _ = g.Node("E1")
	for _, name := range []string{"C1", "C2", "C3", "C4"} {
		c, _ := g.Node(name)
		r := &lineRelay{n: n, node: c}
		w.relays = append(w.relays, r)
		n.Bind(c, r)
	}
	w.s0 = &laneSink{clk: n.ClockOf(w.e0)}
	w.s1 = &laneSink{clk: n.ClockOf(w.e1)}
	n.Bind(w.e0, w.s0)
	n.Bind(w.e1, w.s1)
	return w
}

// burst schedules k back-to-back sends from node at t via the control
// plane — the injection style every experiment and fault hook uses,
// which dispatches on the control lane even when the node's data lane
// is elsewhere.
func (w *shardChain) burst(node *topology.Node, t time.Duration, firstSeq uint64, k int) {
	w.n.Scheduler().At(t, func() {
		for i := 0; i < k; i++ {
			w.n.Send(node, 0, &packet.Packet{
				Size:    600,
				TTL:     16,
				Seq:     firstSeq + uint64(i),
				RouteID: rns.RouteIDFromUint64(0x5AD_0000 + firstSeq + uint64(i)),
			})
		}
	})
}

type chainRun struct {
	seq0, seq1 []uint64
	at0, at1   []time.Duration
	dump       string
}

// driveChain runs the canonical injection schedule: control-plane
// bursts from both ends, lane-local timer sends, a mid-run injection
// posted between two RunUntil segments, and (optionally) a failure
// window on the C2—C3 cut link.
func driveChain(t *testing.T, shards int, scalar, fail bool) chainRun {
	t.Helper()
	w := newShardChain(t, shards, scalar)
	w.burst(w.e0, 0, 100, 8)
	w.burst(w.e1, 700*time.Microsecond, 300, 5)
	// Lane-local timer: the shard-safe way for traffic generators.
	w.n.ClockOf(w.e0).At(300*time.Microsecond, func() {
		for i := uint64(0); i < 4; i++ {
			w.n.Send(w.e0, 0, &packet.Packet{Size: 600, TTL: 16, Seq: 200 + i})
		}
	})
	// Control-plane injection while data packets are mid-flight: the
	// control clock is ahead of the idle edge lane here, so a stale
	// lane clock would serialize these too early and diverge.
	w.burst(w.e0, 1500*time.Microsecond, 400, 6)
	if fail {
		w.n.ScheduleFailure(w.cut, 800*time.Microsecond, 600*time.Microsecond)
	}
	w.n.RunUntil(2 * time.Millisecond)
	// Inject more after a partial run: lanes were parked at 2ms.
	w.burst(w.e1, 2200*time.Microsecond, 500, 3)
	w.burst(w.e0, 2500*time.Microsecond, 600, 4)
	w.n.RunUntil(10 * time.Millisecond)
	return w.result(t)
}

// result snapshots what a finished run delivered and its metric dump.
func (w *shardChain) result(t *testing.T) chainRun {
	t.Helper()
	var buf bytes.Buffer
	if err := w.n.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return chainRun{
		seq0: w.s0.seqs, seq1: w.s1.seqs,
		at0: w.s0.ats, at1: w.s1.ats,
		dump: buf.String(),
	}
}

func checkRunsEqual(t *testing.T, name string, want, got chainRun) {
	t.Helper()
	if !reflect.DeepEqual(want.seq0, got.seq0) || !reflect.DeepEqual(want.seq1, got.seq1) {
		t.Errorf("%s: delivery order diverged\n  E0 want %v got %v\n  E1 want %v got %v",
			name, want.seq0, got.seq0, want.seq1, got.seq1)
	}
	if !reflect.DeepEqual(want.at0, got.at0) || !reflect.DeepEqual(want.at1, got.at1) {
		t.Errorf("%s: arrival instants diverged", name)
	}
	if want.dump != got.dump {
		t.Errorf("%s: metric dump diverged from 1-shard reference", name)
	}
}

// TestShardDeterminismChain is the headline byte-identity gate: every
// shard count and both data planes must replay the 1-shard batched
// run exactly — deliveries, arrival times, metric dump.
func TestShardDeterminismChain(t *testing.T) {
	ref := driveChain(t, 1, false, false)
	if len(ref.seq0) == 0 || len(ref.seq1) == 0 {
		t.Fatalf("reference run delivered nothing (E0 %d, E1 %d)", len(ref.seq0), len(ref.seq1))
	}
	for _, tc := range []struct {
		name   string
		shards int
		scalar bool
	}{
		{"shards1-scalar", 1, true},
		{"shards2", 2, false},
		{"shards2-scalar", 2, true},
		{"shards4", 4, false},
		{"shards4-scalar", 4, true},
	} {
		checkRunsEqual(t, tc.name, ref, driveChain(t, tc.shards, tc.scalar, false))
	}
}

// TestShardDeterminismCutFailure replays the schedule with a failure
// window on the cut link itself: link state flips are control events,
// and windows must never span them.
func TestShardDeterminismCutFailure(t *testing.T) {
	ref := driveChain(t, 1, false, true)
	clean := driveChain(t, 1, false, false)
	if reflect.DeepEqual(ref.seq1, clean.seq1) && reflect.DeepEqual(ref.seq0, clean.seq0) {
		t.Fatalf("failure window changed nothing — schedule does not exercise the cut link")
	}
	for _, shards := range []int{2, 4} {
		got := driveChain(t, shards, false, true)
		checkRunsEqual(t, "fail-shards", ref, got)
	}
}

// TestShardRecyclesOnTheDroppingLane: lane timers at both ends send
// pooled packets across the cut link while failure windows on it kill
// some in flight (on the receiving lane) and drop others at the sender,
// inside parallel windows. A lost packet must go back to the cache of
// the lane whose event lost it: under -race, one recycled into the
// other lane's cache races with that lane's own sends. The run must
// also replay the 1-shard run.
func TestShardRecyclesOnTheDroppingLane(t *testing.T) {
	run := func(shards int) (chainRun, int64) {
		w := newShardChain(t, shards, false)
		for _, e := range []*topology.Node{w.e0, w.e1} {
			e, clk := e, w.n.ClockOf(e)
			var seq uint64
			var tick func()
			tick = func() {
				for i := 0; i < 4; i++ {
					p := clk.NewPacket()
					p.Size, p.TTL, p.Seq = 600, 16, seq
					seq++
					w.n.Send(e, 0, p)
				}
				if clk.Now() < 8*time.Millisecond {
					clk.After(100*time.Microsecond, tick)
				}
			}
			clk.At(0, tick)
		}
		for i := 0; i < 4; i++ {
			w.n.ScheduleFailure(w.cut, time.Duration(1+2*i)*time.Millisecond, 700*time.Microsecond)
		}
		w.n.RunUntil(10 * time.Millisecond)
		return w.result(t), w.n.Metrics().Counter("kar_net_drops_total", "reason", "in-flight").Value()
	}
	ref, inFlight := run(1)
	if inFlight == 0 {
		t.Fatal("no in-flight drops: the failure windows kill nothing on the wire")
	}
	got, _ := run(2)
	checkRunsEqual(t, "shards2", ref, got)
}

// TestShardSerialMatchesParallel pins that single-threaded global-
// minimum stepping (forced by any total-order observer, here a trace
// sink) and parallel windows produce identical runs.
func TestShardSerialMatchesParallel(t *testing.T) {
	parallel := driveChain(t, 4, false, false)

	w := newShardChain(t, 4, false)
	logDrops(w.n)
	if w.n.parallelOK() {
		t.Fatal("a trace sink should veto parallel windows")
	}
	w.burst(w.e0, 0, 100, 8)
	w.burst(w.e1, 700*time.Microsecond, 300, 5)
	w.n.ClockOf(w.e0).At(300*time.Microsecond, func() {
		for i := uint64(0); i < 4; i++ {
			w.n.Send(w.e0, 0, &packet.Packet{Size: 600, TTL: 16, Seq: 200 + i})
		}
	})
	w.burst(w.e0, 1500*time.Microsecond, 400, 6)
	w.n.RunUntil(2 * time.Millisecond)
	w.burst(w.e1, 2200*time.Microsecond, 500, 3)
	w.burst(w.e0, 2500*time.Microsecond, 600, 4)
	w.n.RunUntil(10 * time.Millisecond)

	if d := w.n.Dropped(); d != 0 {
		t.Errorf("%d unexpected drops", d)
	}
	checkRunsEqual(t, "serial-vs-parallel", parallel, w.result(t))
}

// TestMidRunImpairmentSharded: a gray impairment that a control event
// installs on the cut link in the middle of a RunUntil must stop
// parallel windows from that instant on — its RNG draws are defined by
// the global event order, and two lanes deliver over the link. The
// sharded run must replay the 1-shard run element for element (and,
// under -race, without two worker goroutines drawing from imp.Rand).
func TestMidRunImpairmentSharded(t *testing.T) {
	run := func(shards int) chainRun {
		w := newShardChain(t, shards, false)
		for i := 0; i < 20; i++ {
			at := time.Duration(i) * 400 * time.Microsecond
			w.burst(w.e0, at, uint64(1000+10*i), 6)
			w.burst(w.e1, at+50*time.Microsecond, uint64(5000+10*i), 6)
		}
		w.n.Scheduler().At(2*time.Millisecond, func() {
			w.n.SetImpairment(w.cut, &Impairment{
				DropProb: 0.3, CorruptProb: 0.3, Rand: rand.New(rand.NewSource(11)),
			})
		})
		w.n.RunUntil(20 * time.Millisecond)
		if p := w.n.Pending(); p != 0 {
			t.Errorf("shards=%d: %d items pending after a drained run", shards, p)
		}
		return w.result(t)
	}
	ref := run(1)
	if sent := 2 * 20 * 6; len(ref.seq0)+len(ref.seq1) >= sent || len(ref.seq0) == 0 || len(ref.seq1) == 0 {
		t.Fatalf("reference run delivered %d+%d of %d: the impairment must drop some packets in both directions, not all",
			len(ref.seq0), len(ref.seq1), sent)
	}
	checkRunsEqual(t, "mid-run-impairment-shards2", ref, run(2))

	// The impairment lands on the instant a window that buffered cut-
	// link deliveries ends: C2 sends a burst over the cut just before,
	// in a window that opens at the burst (nothing else is pending) and
	// ends at the control event. That control step must first take the
	// burst out of the inbox into C3's queue, so the burst's transits
	// draw from the impairment in the global order.
	const impAt = 2 * time.Millisecond
	land := func(shards int) (chainRun, int) {
		w := newShardChain(t, shards, false)
		c2 := w.relays[1].node
		cutDir := &w.n.lines[w.cut.Index()].dirs[0] // C2→C3
		buffered := shards == 1
		w.n.ClockOf(c2).At(impAt-100*time.Microsecond, func() {
			for i := 0; i < 6; i++ {
				w.n.Send(c2, 1, &packet.Packet{
					Size: 600, TTL: 16, Seq: uint64(700 + i),
					RouteID: rns.RouteIDFromUint64(0x5AD_0700 + uint64(i)),
				})
			}
			if shards > 1 {
				buffered = w.n.inWindow && len(w.n.boxes[w.n.fill][cutDir.box].msgs) == 6
			}
		})
		pending := -1
		w.n.Scheduler().At(impAt, func() {
			pending = w.n.Pending()
			w.n.SetImpairment(w.cut, &Impairment{
				DropProb: 0.3, CorruptProb: 0.3, Rand: rand.New(rand.NewSource(11)),
			})
		})
		w.n.RunUntil(20 * time.Millisecond)
		if !buffered {
			t.Errorf("shards=%d: the burst was not buffered in the cut link's inbox inside a window", shards)
		}
		return w.result(t), pending
	}
	landRef, landPending := land(1)
	if landPending != 6 || len(landRef.seq1) == 0 || len(landRef.seq1) == 6 {
		t.Fatalf("reference run: %d pending at the impairment, %d of 6 delivered; want 6 pending and some, not all, delivered",
			landPending, len(landRef.seq1))
	}
	for _, shards := range []int{2, 4} {
		got, pending := land(shards)
		if pending != landPending {
			t.Errorf("shards=%d: Pending() = %d at the impairment, want %d", shards, pending, landPending)
		}
		checkRunsEqual(t, fmt.Sprintf("impairment-after-buffered-window-shards%d", shards), landRef, got)
	}
}

// TestShardMidRunReads: telemetry read from the control plane — inside
// an At callback between parallel windows, and at a RunUntil boundary
// while packets are still in flight — is exact in every driver. The
// per-hop counters sit in lane-owned cells until folded; a read must
// see every lane's share, whichever driver ran the hops. Likewise
// Pending: a cut-link delivery a window left in an inbox must be in
// its receiver's queue before a control callback runs.
func TestShardMidRunReads(t *testing.T) {
	type reading struct {
		delivered, sends int64
		cut              LineStats
		pending          int
	}
	run := func(shards int, scalar bool) []reading {
		w := newShardChain(t, shards, scalar)
		var got []reading
		var injected int64
		read := func() {
			r := reading{
				delivered: w.n.Delivered(),
				sends:     w.n.Metrics().SumCounter("kar_net_sends_total"),
				cut:       w.n.LineStats(w.cut),
				pending:   w.n.Pending(),
			}
			// Ground truth from the handlers themselves (every relay
			// hand-off is one delivery and one send).
			relayed := int64(0)
			for _, rl := range w.relays {
				relayed += rl.handled
			}
			if want := relayed + int64(len(w.s0.seqs)+len(w.s1.seqs)); r.delivered != want {
				t.Errorf("shards=%d scalar=%v reading %d: Delivered() = %d, handlers saw %d", shards, scalar, len(got), r.delivered, want)
			}
			if want := injected + relayed; r.sends != want {
				t.Errorf("shards=%d scalar=%v reading %d: kar_net_sends_total = %d, want %d", shards, scalar, len(got), r.sends, want)
			}
			got = append(got, r)
		}
		burst := func(node *topology.Node, at time.Duration, firstSeq uint64, k int) {
			w.burst(node, at, firstSeq, k)
			w.n.Scheduler().At(at, func() { injected += int64(k) })
		}
		burst(w.e0, 0, 100, 8)
		burst(w.e1, 700*time.Microsecond, 300, 5)
		burst(w.e0, 1500*time.Microsecond, 400, 6)
		for _, at := range []time.Duration{900 * time.Microsecond, 1700 * time.Microsecond, 2600 * time.Microsecond} {
			w.n.Scheduler().At(at, read)
		}
		w.n.RunUntil(2 * time.Millisecond)
		read() // phase boundary: the 1.5 ms burst is mid-line
		w.n.RunUntil(10 * time.Millisecond)
		read()
		return got
	}
	ref := run(1, false)
	if len(ref) != 5 || ref[0].delivered == 0 || ref[0].cut.SentPackets == 0 {
		t.Fatalf("reference readings do not exercise the line: %+v", ref)
	}
	if ref[3].delivered <= ref[1].delivered || ref[4].delivered <= ref[3].delivered {
		t.Fatalf("reference readings are not mid-run: %+v", ref)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, scalar := range []bool{false, true} {
			if got := run(shards, scalar); !reflect.DeepEqual(ref, got) {
				t.Errorf("shards=%d scalar=%v: readings diverge\n want %+v\n  got %+v", shards, scalar, ref, got)
			}
		}
	}
}

// TestShardLookahead checks the conservative window bound: the minimum
// propagation delay over cut links, which depends on where the
// partition falls. The world is cut into two regions per worker, so
// on the four-core chain two workers already give every core a region
// of its own.
func TestShardLookahead(t *testing.T) {
	if w := newShardChain(t, 1, false); w.n.Lookahead() != 0 {
		t.Errorf("1 shard: lookahead = %v, want 0 (no cut links)", w.n.Lookahead())
	}
	for _, shards := range []int{2, 4} {
		w := newShardChain(t, shards, false)
		// Four regions: all three inter-core links (500, 300, 400µs)
		// are cut, and the minimum is C2—C3.
		cut := 0
		for _, line := range w.n.lines {
			if line.dirs[0].lane != line.dirs[0].dstLane {
				cut++
			}
		}
		if len(w.n.lanes) != 4 || cut != 3 {
			t.Errorf("%d shards: %d lanes and %d cut links, want 4 and 3", shards, len(w.n.lanes), cut)
		}
		if w.n.Lookahead() != 300*time.Microsecond {
			t.Errorf("%d shards: lookahead = %v, want 300µs", shards, w.n.Lookahead())
		}
	}
}

// TestShardCountClamped: neither the worker count (Shards) nor the
// lane count, two per worker, exceeds the number of core nodes, and
// nonpositive values mean the legacy 1-lane world.
func TestShardCountClamped(t *testing.T) {
	for _, tc := range []struct{ shards, workers, lanes int }{
		{16, 4, 4}, {0, 1, 1}, {1, 1, 1}, {2, 2, 4}, {3, 3, 4},
	} {
		w := newShardChain(t, tc.shards, false)
		if w.n.Shards() != tc.workers || len(w.n.lanes) != tc.lanes {
			t.Errorf("WithShards(%d): Shards() = %d over %d lanes, want %d over %d",
				tc.shards, w.n.Shards(), len(w.n.lanes), tc.workers, tc.lanes)
		}
	}
}

// TestWindowDenyPostPanics: posting to the control scheduler from
// inside a parallel window is a determinism bug, and the engine turns
// it into a loud panic instead of a silent race.
func TestWindowDenyPostPanics(t *testing.T) {
	w := newShardChain(t, 2, false)
	w.n.sched.denyPost = true
	defer func() {
		if recover() == nil {
			t.Fatal("At on a denyPost scheduler should panic")
		}
	}()
	w.n.Scheduler().At(time.Millisecond, func() {})
}

// TestShardWorkersNeverOutliveRun: a sharded RunUntil runs its lanes
// on the caller and Shards()−1 worker goroutines, started by its first
// window, and has stopped every one by the time it returns — after a
// normal run, after a run whose every step a trace sink vetoes (which
// starts none), and after a lane's panic unwinds it, whichever
// goroutine drew the panicking lane.
func TestShardWorkersNeverOutliveRun(t *testing.T) {
	base := settledGoroutines()
	settled := func(what string) {
		t.Helper()
		if g := settledGoroutines(); g != base {
			t.Errorf("%s: %d goroutines after RunUntil, %d before", what, g, base)
		}
	}
	for _, shards := range []int{2, 3, 4} {
		w := newShardChain(t, shards, false)
		w.burst(w.e0, 0, 100, 8)
		w.burst(w.e1, 700*time.Microsecond, 300, 5)
		during := 0
		w.n.ClockOf(w.e0).At(time.Millisecond, func() { during = runtime.NumGoroutine() })
		w.n.RunUntil(10 * time.Millisecond)
		if want := base + shards - 1; during != want {
			t.Errorf("shards=%d: %d goroutines inside a window, want %d (the caller and shards−1 workers, whatever the lane count)", shards, during, want)
		}
		if len(w.s1.seqs) != 8 || len(w.s0.seqs) != 5 {
			t.Fatalf("shards=%d: delivered %d+%d packets, want 8+5", shards, len(w.s1.seqs), len(w.s0.seqs))
		}
		settled(fmt.Sprintf("shards=%d", shards))
	}

	w := newShardChain(t, 2, false)
	logDrops(w.n)
	w.burst(w.e0, 0, 100, 8)
	during := 0
	w.n.ClockOf(w.e1).At(time.Millisecond, func() { during = runtime.NumGoroutine() })
	w.n.RunUntil(10 * time.Millisecond)
	if during != base {
		t.Errorf("vetoed run: %d goroutines mid-run, want %d (no window, no worker)", during, base)
	}
	settled("vetoed run")

	// A lane posts to the control plane inside a window, which panics.
	// On its own, lane 0 is drawn by the caller, which unwinds from it
	// directly. Held in a handshake, lane 0 keeps the caller until lane
	// 3 — on E1, the far end — has run, so a worker draws lane 3 and
	// its panic reaches the caller when the window is over.
	for _, held := range []bool{false, true} {
		w := newShardChain(t, 2, false)
		w.burst(w.e0, 0, 100, 8)
		w.burst(w.e1, 0, 300, 5)
		panicker := w.e0
		if held {
			panicker = w.e1
			ran := make(chan struct{})
			w.n.ClockOf(w.e0).At(time.Millisecond, func() {
				select {
				case <-ran:
				case <-time.After(10 * time.Second):
					t.Error("lane 3 never ran while lane 0 held the caller")
				}
			})
			w.n.ClockOf(w.e1).At(time.Millisecond, func() { close(ran) })
		}
		w.n.ClockOf(panicker).At(time.Millisecond, func() {
			w.n.Scheduler().At(2*time.Millisecond, func() {})
		})
		func() {
			defer func() {
				if p, _ := recover().(string); !strings.Contains(p, "parallel shard window") {
					t.Errorf("held=%v: control post inside a window recovered %q, want the denyPost panic", held, p)
				}
			}()
			w.n.RunUntil(10 * time.Millisecond)
		}()
		settled(fmt.Sprintf("lane panic, held=%v", held))
	}
}

// settledGoroutines counts the process's goroutines once the workers of
// earlier runs have gone: a worker marks itself exited just before it
// returns, so for a moment after RunUntil it is still counted. The
// count is taken when it has not fallen for 20 ms.
func settledGoroutines() int {
	g := runtime.NumGoroutine()
	for quiet := time.Now(); time.Since(quiet) < 20*time.Millisecond; {
		time.Sleep(time.Millisecond)
		if now := runtime.NumGoroutine(); now < g {
			g, quiet = now, time.Now()
		}
	}
	return g
}

// fabricRelay forwards a packet out of a port chosen from its sequence
// number and arrival port until its TTL runs out, and notes, for its
// lane, every dispatch inside a parallel window and the goroutine count
// it saw there. Each lane's note is written by that lane's runner only.
type fabricRelay struct {
	n     *Network
	node  *topology.Node
	clk   Clock
	notes []laneNote
}

type laneNote struct {
	inWindow   int
	goroutines map[int]bool
}

func (r *fabricRelay) HandlePacket(pkt *packet.Packet, inPort int) {
	if r.n.inWindow {
		note := &r.notes[r.n.nodeLane[r.node.Index()]]
		note.inWindow++
		note.goroutines[runtime.NumGoroutine()] = true
	}
	if r.node.Kind() != topology.KindCore || pkt.TTL == 0 {
		r.clk.Recycle(pkt)
		return
	}
	pkt.TTL--
	span := r.node.PortSpan()
	r.n.Send(r.node, (inPort+1+int(pkt.Seq%uint64(span-1)))%span, pkt)
}

// TestShardLanesOutnumberWorkers: the world is cut into two lanes per
// worker and the workers pull lanes each window. On fattree:4 at 2 and
// 3 workers (4 and 6 lanes), every lane dispatches inside parallel
// windows, the goroutine count there is the caller's plus shards−1
// workers, and the metric dump is the 1-shard run's.
func TestShardLanesOutnumberWorkers(t *testing.T) {
	run := func(shards int) (string, []laneNote, int, int64) {
		g, err := topology.FromSpec("fattree:4")
		if err != nil {
			t.Fatal(err)
		}
		n := New(g, WithShards(shards))
		notes := make([]laneNote, len(n.lanes))
		for i := range notes {
			notes[i].goroutines = map[int]bool{}
		}
		for _, node := range g.Nodes() {
			n.Bind(node, &fabricRelay{n: n, node: node, clk: n.ClockOf(node), notes: notes})
		}
		for h, host := range g.EdgeNodes() {
			host, clk := host, n.ClockOf(host)
			seq := uint64(h) << 32
			var tick func()
			tick = func() {
				for i := 0; i < 3; i++ {
					p := clk.NewPacket()
					p.Size, p.TTL, p.Seq = 500, 7, seq
					seq++
					n.Send(host, 0, p)
				}
				if clk.Now() < 8*time.Millisecond {
					clk.After(40*time.Microsecond, tick)
				}
			}
			clk.At(time.Duration(h)*5*time.Microsecond, tick)
		}
		base := settledGoroutines()
		n.RunUntil(12 * time.Millisecond)
		var buf bytes.Buffer
		if err := n.Metrics().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), notes, base, n.Delivered()
	}
	ref, _, _, delivered := run(1)
	if delivered == 0 {
		t.Fatal("the reference run delivered nothing")
	}
	for _, tc := range []struct{ shards, lanes int }{{2, 4}, {3, 6}} {
		dump, notes, base, _ := run(tc.shards)
		if len(notes) != tc.lanes {
			t.Fatalf("shards=%d: %d lanes, want %d", tc.shards, len(notes), tc.lanes)
		}
		for i, note := range notes {
			if note.inWindow == 0 {
				t.Errorf("shards=%d: lane %d dispatched nothing inside a window", tc.shards, i)
			}
			want := base + tc.shards - 1
			if len(note.goroutines) != 1 || !note.goroutines[want] {
				t.Errorf("shards=%d: lane %d saw goroutine counts %v inside windows, want only %d",
					tc.shards, i, note.goroutines, want)
			}
		}
		if dump != ref {
			t.Errorf("shards=%d: metric dump diverged from the 1-shard run", tc.shards)
		}
	}
}

// TestClockOfLaneTimers: per-node clocks fire on the owning lane at
// the exact requested instant, in every execution mode, and nested
// After scheduling works from inside a shard-lane callback.
func TestClockOfLaneTimers(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		w := newShardChain(t, shards, false)
		var at0, at1, nested time.Duration
		c0, c1 := w.n.ClockOf(w.e0), w.n.ClockOf(w.e1)
		c0.At(time.Millisecond, func() {
			at0 = c0.Now()
			c0.After(500*time.Microsecond, func() { nested = c0.Now() })
		})
		c1.At(time.Millisecond, func() { at1 = c1.Now() })
		w.n.RunUntil(5 * time.Millisecond)
		if at0 != time.Millisecond || at1 != time.Millisecond {
			t.Errorf("shards=%d: timers fired at %v/%v, want 1ms", shards, at0, at1)
		}
		if nested != 1500*time.Microsecond {
			t.Errorf("shards=%d: nested After fired at %v, want 1.5ms", shards, nested)
		}
	}
}
