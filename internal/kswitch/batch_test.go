package kswitch

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/simnet"
)

// unshaped is a policy that decides as its inner one does but declares
// no shape: the batched path may forward none of its packets itself.
type unshaped struct{ deflect.Policy }

func (unshaped) Shape() deflect.Shape { return deflect.Shape{} }

// TestBatchMatchesScalarSwitchPipeline replays a Fig. 1 NIP run with a
// mid-stream failure — so packets traverse both the batched fast path
// (on-path forwards over cached lines) and the peel-out slow path
// (deflections through Decide) — in batch and scalar mode, and
// requires identical deliveries, per-switch stats and a byte-identical
// metrics dump; then the same under NIP with its shape hidden, where
// every batched packet takes the slow path.
func TestBatchMatchesScalarSwitchPipeline(t *testing.T) {
	type result struct {
		seqs  []uint64
		hops  []int
		stats map[string]Stats
		dump  string
	}
	run := func(policy deflect.Policy, opts ...simnet.Option) result {
		w := newWorldOpts(t, policy, true, opts...)
		link, ok := w.net.Topology().LinkBetween("SW7", "SW11")
		if !ok {
			t.Fatal("no SW7-SW11 link")
		}
		// Fail the encoded path mid-stream: early packets forward
		// on-path, later ones deflect SW7→SW5→SW11.
		w.net.ScheduleFailure(link, 500*time.Microsecond, 100*time.Millisecond)
		w.inject(50)
		w.run(time.Second)
		res := result{stats: make(map[string]Stats)}
		for name, sw := range w.switches {
			res.stats[name] = sw.Stats()
		}
		for _, p := range w.received {
			res.seqs = append(res.seqs, p.Seq)
			res.hops = append(res.hops, p.Hops)
		}
		var buf bytes.Buffer
		if err := w.net.Metrics().WritePrometheus(&buf); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		res.dump = buf.String()
		return res
	}

	batch := run(deflect.NotInputPort{})
	scalar := run(deflect.NotInputPort{}, simnet.WithScalarDataPlane())
	if slow := run(unshaped{deflect.NotInputPort{}}); !reflect.DeepEqual(slow, scalar) {
		t.Errorf("a policy without a shape: batched run differs from the scalar one:\nbatch:  %+v\nscalar: %+v", slow.stats, scalar.stats)
	}

	if !reflect.DeepEqual(batch.seqs, scalar.seqs) {
		t.Errorf("delivered seqs differ: batch %v vs scalar %v", batch.seqs, scalar.seqs)
	}
	if !reflect.DeepEqual(batch.hops, scalar.hops) {
		t.Errorf("hop counts differ: batch %v vs scalar %v", batch.hops, scalar.hops)
	}
	if !reflect.DeepEqual(batch.stats, scalar.stats) {
		t.Errorf("switch stats differ:\nbatch:  %+v\nscalar: %+v", batch.stats, scalar.stats)
	}
	if batch.dump != scalar.dump {
		t.Error("metrics dumps differ between batch and scalar runs")
	}

	// Non-vacuous: the scenario must have exercised both the on-path
	// fast path (forwards) and the peel-out slow path (deflections).
	var forwards, deflections int64
	for _, st := range batch.stats {
		forwards += st.Forwarded
		deflections += st.Deflections
	}
	if forwards == 0 {
		t.Fatal("scenario forwarded no packets")
	}
	if deflections == 0 {
		t.Fatal("scenario exercised no deflections")
	}
	if len(batch.seqs) == 0 {
		t.Fatal("scenario delivered no packets")
	}
}
