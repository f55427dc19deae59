package simnet

import (
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestSchedulerSteadyStateZeroAlloc: once the heap's backing array has
// grown, a schedule+dispatch cycle allocates nothing — the invariant
// the whole hot-path overhaul rests on.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	var s Scheduler
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state After+Step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSchedulerDeepSteadyStateZeroAlloc: the same cycle with 3 000
// entries pending a link delay ahead — through the ring's node slab
// and free list rather than the front heap — allocates nothing once the
// slab has grown.
func TestSchedulerDeepSteadyStateZeroAlloc(t *testing.T) {
	var s Scheduler
	fn := func() {}
	cycle := func() {
		s.After(time.Millisecond, fn)
		s.Step()
	}
	for i := 0; i < 3000; i++ {
		s.After(time.Duration(i)*333*time.Nanosecond, fn)
	}
	for i := 0; i < 10000; i++ {
		cycle()
	}
	if len(s.nodes) == 0 || s.Pending() != 3000 {
		t.Fatalf("ring slab holds %d nodes with %d pending; want the cycle to run through the ring at depth 3000", len(s.nodes), s.Pending())
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("steady-state After+Step at depth 3000 allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSchedulerHeapOrder: a 4-ary heap with FIFO tiebreak must drain
// in (time, scheduling order), regardless of insertion order.
func TestSchedulerHeapOrder(t *testing.T) {
	var s Scheduler
	var got []int
	times := []time.Duration{5, 1, 3, 1, 4, 2, 1, 5, 0, 2}
	for i, at := range times {
		i := i
		s.At(at*time.Millisecond, func() { got = append(got, i) })
	}
	for s.Step() {
	}
	want := []int{8, 1, 3, 6, 5, 9, 2, 4, 0, 7} // sort by (time, insertion)
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestSchedulerPastEventCounter: scheduling into the virtual past
// clamps to now and bumps the attached counter.
func TestSchedulerPastEventCounter(t *testing.T) {
	var s Scheduler
	reg := telemetry.NewRegistry()
	c := reg.Counter("kar_sched_past_events_total")
	s.SetPastEventCounter(c)

	s.At(10*time.Millisecond, func() {})
	s.RunUntil(20 * time.Millisecond)
	if c.Value() != 0 {
		t.Fatalf("future scheduling bumped the past counter: %d", c.Value())
	}

	ran := false
	s.At(5*time.Millisecond, func() { ran = true }) // in the past now
	if c.Value() != 1 {
		t.Fatalf("past counter = %d, want 1", c.Value())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	if !s.Step() || !ran {
		t.Fatal("clamped event did not run")
	}
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("clamped event ran at %v, want clock held at 20ms", s.Now())
	}

	// Nil counter (no network attached) must not panic.
	var bare Scheduler
	bare.RunUntil(time.Millisecond)
	bare.At(0, func() {})
}

// TestLaneFrontCapacityFixed: a lane's front heap starts at one fixed
// capacity, whatever the topology — front holds about a microsecond of
// its lane's traffic, and grows by append past that — so a large world
// reserves nothing per link. fattree:16 (3 072 links) at shards=2 has
// four data lanes and a control lane.
func TestLaneFrontCapacityFixed(t *testing.T) {
	g, err := topology.FromSpec("fattree:16")
	if err != nil {
		t.Fatal(err)
	}
	n := New(g, WithShards(2))
	defer n.Close()
	if len(n.lanes) != 4 {
		t.Fatalf("%d lanes, want 4", len(n.lanes))
	}
	for i, s := range append([]*Scheduler{n.sched}, n.lanes...) {
		if len(s.front) != 0 || cap(s.front) != 2*smallWorld {
			t.Errorf("scheduler %d (0: control): front len %d cap %d after New, want 0 and %d",
				i, len(s.front), cap(s.front), 2*smallWorld)
		}
	}
}
