package trace_test

import (
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/kswitch"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/udpsim"
)

// pairNet builds a bare two-edge network for driving recorder hooks
// directly, with a recorder already attached.
func pairNet(t *testing.T, cfg trace.Config) (*simnet.Network, *trace.Recorder) {
	t.Helper()
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
	n := simnet.New(g)
	return n, trace.NewRecorder(n, cfg)
}

// countKinds tallies records per kind.
func countKinds(recs []trace.Record) map[trace.RecordKind]int {
	m := make(map[trace.RecordKind]int)
	for _, r := range recs {
		m[r.Kind]++
	}
	return m
}

// TestRecorderJourneyRecords sends one packet S->D on the Fig. 1 world
// and asserts the full record sequence: inject at S (with the encoded
// baseline), a hop at each core switch, a tx per link, and the decap.
func TestRecorderJourneyRecords(t *testing.T) {
	w := buildWorld(t)
	rec := trace.NewRecorder(w.Net, trace.Config{Rate: 1})
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, _ := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{Count: 1})
	send.Start()
	w.Run(time.Second)

	recs := rec.Records()
	kinds := countKinds(recs)
	// Path S->SW4->SW7->SW11->D: 1 inject, 3 switch hops, 4 link
	// transmissions, 1 decap.
	want := map[trace.RecordKind]int{
		trace.RecInject: 1, trace.RecHop: 3, trace.RecTx: 4, trace.RecDecap: 1,
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%s records = %d, want %d", k, kinds[k], n)
		}
	}
	if recs[0].Kind != trace.RecInject || recs[0].Where != "S" {
		t.Fatalf("first record = %s at %s, want inject at S", recs[0].Kind, recs[0].Where)
	}
	if recs[0].Baseline != 4 {
		t.Errorf("inject baseline = %d, want 4 (S->SW4->SW7->SW11->D)", recs[0].Baseline)
	}

	js := trace.Journeys(recs)
	if len(js) != 1 {
		t.Fatalf("reconstructed %d journeys, want 1", len(js))
	}
	j := js[0]
	if j.Outcome != "delivered" || j.Where != "D" {
		t.Errorf("journey outcome = %s at %s, want delivered at D", j.Outcome, j.Where)
	}
	if j.HopCount != 4 || j.Baseline != 4 {
		t.Errorf("hops/baseline = %d/%d, want 4/4", j.HopCount, j.Baseline)
	}
	if s := j.Stretch(); s != 1 {
		t.Errorf("stretch = %v, want 1 (on-path delivery)", s)
	}
	if j.Deflections() != 0 {
		t.Errorf("deflections = %d, want 0", j.Deflections())
	}
	// The journey holds the inject pseudo-hop plus one entry per switch,
	// each annotated with its link transmission.
	if len(j.Hops) != 4 {
		t.Fatalf("journey has %d hop entries, want 4", len(j.Hops))
	}
	if j.Hops[0].InPort != -1 {
		t.Errorf("inject hop in-port = %d, want -1", j.Hops[0].InPort)
	}
	for i, h := range j.Hops {
		if h.TxTime <= 0 {
			t.Errorf("hop %d (%s) missing tx annotation", i, h.Where)
		}
	}
	// On-path hops: the port taken is the encoded port.
	for _, h := range j.Hops[1:] {
		if h.Cause != "" || h.OutPort != h.Encoded {
			t.Errorf("on-path hop at %s: cause=%q out=%d encoded=%d", h.Where, h.Cause, h.OutPort, h.Encoded)
		}
	}
}

// TestRecorderDeflectionCause fails the on-path link SW7-SW11 and
// asserts the recorder captures the deflection: a hop whose chosen
// port differs from the encoded residue, labelled with the cause.
func TestRecorderDeflectionCause(t *testing.T) {
	w := buildWorld(t)
	rec := trace.NewRecorder(w.Net, trace.Config{Rate: 1})
	if err := w.FailLinkBetween("SW7", "SW11", 0, time.Hour); err != nil {
		t.Fatal(err)
	}
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, _ := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{Count: 1})
	send.Start()
	w.Run(time.Second)

	var deflected *trace.Record
	for _, r := range rec.Records() {
		if r.Kind == trace.RecHop && r.Cause != "" {
			d := r
			deflected = &d
			break
		}
	}
	if deflected == nil {
		t.Fatal("no deflection hop recorded with the on-path link down")
	}
	if deflected.Where != "SW7" {
		t.Errorf("deflection at %s, want SW7 (its port to SW11 is down)", deflected.Where)
	}
	if deflected.Cause != kswitch.CausePortDown {
		t.Errorf("deflection cause = %q, want %q", deflected.Cause, kswitch.CausePortDown)
	}
	if deflected.OutPort == deflected.Encoded {
		t.Errorf("deflected hop kept encoded port %d", deflected.Encoded)
	}

	js := trace.Journeys(rec.Records())
	if len(js) != 1 {
		t.Fatalf("reconstructed %d journeys, want 1", len(js))
	}
	j := js[0]
	if j.Outcome != "delivered" {
		t.Fatalf("journey outcome = %s, want delivered (deflection routes around)", j.Outcome)
	}
	if j.Deflections() == 0 {
		t.Error("journey counts no deflections")
	}
	if s := j.Stretch(); s <= 1 {
		t.Errorf("stretch = %v, want > 1 (detour is longer than baseline)", s)
	}
}

// TestSampleFlowDeterministic asserts sampling is a pure function of
// flow identity: direction-agnostic (a flow and its ACK path sample
// together), rate 0 samples nothing, rate 1 everything, and a partial
// rate splits the flow population.
func TestSampleFlowDeterministic(t *testing.T) {
	_, all := pairNet(t, trace.Config{Rate: 1})
	_, none := pairNet(t, trace.Config{Rate: 0})
	_, half := pairNet(t, trace.Config{Rate: 0.5})

	nodes := []string{"AS1", "AS2", "AS3", "SW7", "SW13", "S", "D"}
	var flows []packet.FlowID
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			for id := uint32(0); id < 3; id++ {
				flows = append(flows, packet.FlowID{Src: src, Dst: dst, ID: id})
			}
		}
	}

	sampled := 0
	for _, f := range flows {
		if !all.SampleFlow(f) {
			t.Fatalf("rate 1 skipped %v", f)
		}
		if none.SampleFlow(f) {
			t.Fatalf("rate 0 sampled %v", f)
		}
		got := half.SampleFlow(f)
		if rev := half.SampleFlow(f.Reverse()); rev != got {
			t.Fatalf("flow %v sampled=%v but reverse sampled=%v — ACK path diverges", f, got, rev)
		}
		if got {
			sampled++
		}
	}
	if sampled == 0 || sampled == len(flows) {
		t.Errorf("rate 0.5 sampled %d of %d flows, want a strict subset", sampled, len(flows))
	}
}

// TestRecorderRingOverflow overfills the ring and asserts oldest-first
// eviction with exact accounting, mirrored into the registry counter;
// unsampled packets never reach the recorder at all.
func TestRecorderRingOverflow(t *testing.T) {
	n, rec := pairNet(t, trace.Config{Rate: 1, Max: 4})

	a, _ := n.Topology().Node("A")
	const total = 11
	for i := 0; i < total; i++ {
		n.Drop(&packet.Packet{Seq: uint64(i), TTL: 1, Sampled: true}, simnet.DropTTL, a)
	}
	// An unsampled drop is invisible to the flight recorder.
	n.Drop(&packet.Packet{Seq: 99, TTL: 1}, simnet.DropTTL, a)

	recs := rec.Records()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if want := uint64(total - 4 + i); r.Seq != want {
			t.Errorf("record %d seq = %d, want %d (oldest evicted first)", i, r.Seq, want)
		}
		if r.Kind != trace.RecDrop || r.Cause != "ttl" {
			t.Errorf("record %d = %s cause=%q, want drop/ttl", i, r.Kind, r.Cause)
		}
	}
	if got, want := n.Metrics().CounterValue("kar_trace_span_evicted_total"), int64(total-4); got != want {
		t.Errorf("kar_trace_span_evicted_total = %d, want %d", got, want)
	}
}

// TestSetTraceSinkNilDetachesTap: the recorder's control-plane records
// come through its trace-sink attachment, so detaching the sink stops
// them too.
func TestSetTraceSinkNilDetachesTap(t *testing.T) {
	n, rec := pairNet(t, trace.Config{Rate: 1})
	n.Events().Record(telemetry.EventLinkFail, "A-B", "")
	n.SetTraceSink(nil)
	n.Events().Record(telemetry.EventLinkRepair, "A-B", "")
	recs := rec.Records()
	if len(recs) != 1 || recs[0].Kind != trace.RecCtrl || recs[0].Event != telemetry.EventLinkFail {
		t.Fatalf("records = %+v, want the one link_fail recorded while attached", recs)
	}
}

// TestUnsampledZeroAlloc asserts the flight recorder's promise for
// Fig. 5-scale runs: with sampling off, the full edge->core->edge
// pipeline allocates nothing per packet — the recorder costs unsampled
// traffic one bool test per hook.
func TestUnsampledZeroAlloc(t *testing.T) {
	w := buildWorld(t)
	trace.NewRecorder(w.Net, trace.Config{Rate: 0})
	flow := packet.FlowID{Src: "S", Dst: "D"}
	sNode, _ := w.Net.Topology().Node("S")
	dNode, _ := w.Net.Topology().Node("D")
	src, dst := w.Net.ClockOf(sNode), w.Net.ClockOf(dNode)
	delivered := 0
	w.Edges["D"].Attach(flow, edge.ReceiverFunc(func(p *packet.Packet) {
		delivered++
		dst.Recycle(p)
	}))

	seq := uint64(0)
	inject := func() {
		p := src.NewPacket()
		p.Flow = flow
		p.Kind = packet.KindData
		p.Seq = seq
		p.Size = 1500
		seq++
		if err := w.Edges["S"].Inject(p); err != nil {
			t.Error(err)
		}
		// Drain fully so pools are warm and queues empty: virtual time
		// is free.
		w.Net.Scheduler().RunUntil(time.Duration(seq) * time.Millisecond)
	}
	// Warm the packet/buffer pools and the scheduler's event storage.
	for i := 0; i < 256; i++ {
		inject()
	}
	if allocs := testing.AllocsPerRun(500, inject); allocs != 0 {
		t.Errorf("unsampled pipeline allocates %.1f per packet, want 0", allocs)
	}
	// Drain the tail: the last few packets are still in flight.
	w.Net.Scheduler().RunUntil(time.Duration(seq+100) * time.Millisecond)
	if int(seq) != delivered {
		t.Fatalf("delivered %d of %d", delivered, seq)
	}
}
