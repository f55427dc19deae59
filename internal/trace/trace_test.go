package trace_test

import (
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/udpsim"
)

func buildWorld(t *testing.T) *experiment.World {
	t.Helper()
	g, err := topology.Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	policy, _ := deflect.ByName("nip")
	w := experiment.NewWorld(g, policy, 3)
	if _, err := w.InstallRoute("S", "D", [][2]string{{"SW5", "SW11"}}); err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	return w
}

// TestCaptureRecordsPathHops: the recorder captures one packet's path
// switch by switch — the hop list a reader of Journeys relies on.
func TestCaptureRecordsPathHops(t *testing.T) {
	w := buildWorld(t)
	rec := trace.NewRecorder(w.Net, trace.Config{Rate: 1})
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, _ := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{Count: 1})
	send.Start()
	w.Run(time.Second)

	js := trace.Journeys(rec.Records())
	if len(js) != 1 {
		t.Fatalf("reconstructed %d journeys, want 1", len(js))
	}
	j := js[0]
	// One packet, 4 links: injected at S, forwarded by SW4, SW7, SW11,
	// delivered at D.
	wantWhere := []string{"S", "SW4", "SW7", "SW11"}
	if len(j.Hops) != len(wantWhere) {
		t.Fatalf("journey has %d hops, want %d: %+v", len(j.Hops), len(wantWhere), j.Hops)
	}
	for i, h := range j.Hops {
		if h.Where != wantWhere[i] {
			t.Errorf("hop %d at %s, want %s", i, h.Where, wantWhere[i])
		}
		if i > 0 && h.At <= j.Hops[i-1].At {
			t.Errorf("hop %d at %v, not after hop %d at %v", i, h.At, i-1, j.Hops[i-1].At)
		}
	}
	if j.Outcome != "delivered" || j.Where != "D" || j.HopCount != 4 {
		t.Errorf("journey ends %s at %s after %d hops, want delivered at D after 4", j.Outcome, j.Where, j.HopCount)
	}
	if got := w.Net.Metrics().CounterValue("kar_trace_span_evicted_total"); got != 0 {
		t.Errorf("evicted = %d, want 0", got)
	}
}

// TestCaptureRingBuffer: under live traffic the recorder's ring keeps
// the most recent records, in order, and counts the rest as evicted.
func TestCaptureRingBuffer(t *testing.T) {
	w := buildWorld(t)
	rec := trace.NewRecorder(w.Net, trace.Config{Rate: 1, Max: 8})
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, _ := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{Count: 10, Interval: time.Millisecond})
	send.Start()
	w.Run(time.Second)

	recs := rec.Records()
	if len(recs) != 8 {
		t.Fatalf("ring holds %d records, want 8", len(recs))
	}
	// 10 packets × (1 inject + 3 hops + 4 tx + 1 decap).
	if got := w.Net.Metrics().CounterValue("kar_trace_span_evicted_total"); got != 82 {
		t.Errorf("kar_trace_span_evicted_total = %d, want 82", got)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatal("ring records out of order")
		}
	}
	last := recs[len(recs)-1]
	if last.Kind != trace.RecDecap || last.Where != "D" || last.Seq != 9 {
		t.Errorf("last record = %+v, want the decap of seq 9 at D", last)
	}
}
