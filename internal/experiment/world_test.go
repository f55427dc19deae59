package experiment

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// linkUp reads a link's physical state off its kar_link_up gauge.
func linkUp(w *World, l *topology.Link) bool {
	return w.Net.Metrics().Gauge("kar_link_up", "link", l.Name()).Value() == 1
}

// Regression for composing a direct World.FailLinkBetween window with
// a scenario-style fault.Flap on the same link: both now stack
// refcounted down-holds, so the link is down exactly on the union of
// their schedules — the window's repair must not re-raise a link the
// flap still holds, and vice versa.
//
// Flap (start 0, window 12ms, period 4ms, duty 0.5):
// down [0,2) [4,6) [8,10); FailLinkBetween hold: [2,8).
// Union: down [0,10), up from 10ms on.
func TestFailLinkBetweenComposesWithFlap(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	policy, err := PolicyByName("nip")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(g, policy, 1)
	l, ok := g.LinkBetween("SW7", "SW13")
	if !ok {
		t.Fatal("no SW7-SW13 link in net15")
	}

	if err := w.FailLinkBetween("SW7", "SW13", 2*time.Millisecond, 6*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	flap := &fault.Flap{A: "SW7", B: "SW13", Start: 0,
		Window: 12 * time.Millisecond, Period: 4 * time.Millisecond, Duty: 0.5}
	if err := flap.Install(w.Net); err != nil {
		t.Fatal(err)
	}

	probes := map[time.Duration]bool{} // instant -> link physically up
	sched := w.Net.Scheduler()
	for _, at := range []time.Duration{
		1 * time.Millisecond,  // flap down, window not yet started
		3 * time.Millisecond,  // flap up, window holds it down
		5 * time.Millisecond,  // both down
		7 * time.Millisecond,  // flap up, window still holds
		9 * time.Millisecond,  // window over, flap holds [8,10)
		11 * time.Millisecond, // both over
	} {
		at := at
		sched.At(at, func() { probes[at] = linkUp(w, l) })
	}
	w.Run(time.Second)

	for at, wantUp := range map[time.Duration]bool{
		1 * time.Millisecond:  false,
		3 * time.Millisecond:  false,
		5 * time.Millisecond:  false,
		7 * time.Millisecond:  false,
		9 * time.Millisecond:  false,
		11 * time.Millisecond: true,
	} {
		if probes[at] != wantUp {
			t.Errorf("link up=%v at %v, want %v", probes[at], at, wantUp)
		}
	}
	if !linkUp(w, l) {
		t.Error("link still down after both failure causes ended")
	}
}

// A permanent FailLinkBetween (duration <= 0) keeps the link down for
// the rest of the run instead of blipping it for one instant.
func TestFailLinkBetweenPermanent(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	policy, err := PolicyByName("none")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(g, policy, 1)
	l, _ := g.LinkBetween("SW7", "SW13")
	if err := w.FailLinkBetween("SW7", "SW13", time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	w.Run(time.Second)
	if linkUp(w, l) {
		t.Error("link up after a permanent FailLinkBetween")
	}
}

// Allocation budget of the world a daemon job builds: NewWorld over
// Net15 (15 switches, 23 links, 3 edges). The parent commit allocated
// 368 times here — a label set, a key, a map slot and a map per family
// for each of ~35 single series, a Line per link, two port caches and a
// generator handle per switch, three maps and a callback per edge, the
// controller's seven families twice; this measures 148. The ceiling
// sits between the two, so the constructor cannot creep back to paying
// up front for what a short job never reads.
func TestNewWorldAllocationBudget(t *testing.T) {
	g, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		NewWorld(g, deflect.NotInputPort{}, 7)
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 200 {
		t.Errorf("NewWorld(Net15) allocated %.0f times, budget 200", allocs)
	}
}

// Heap budget of the large world: fattree:28 at shards=2 with 10^6
// flows over 256 pairs, wired as Scale wires it (the benchmark's
// fattree28_flows set-up), measured as the live heap it adds, after a
// collection, while it is held. With 4-byte per-flow send counters and
// 32-byte registry cells this read 19.7 MB; with byte counters and
// cells that are their value word, 14.3 MB. With each lane's front heap
// reserved at four entries per link of its share and a delivered byte
// per flow it read 11.6 MB; with every front heap starting at 128
// entries and a delivered bit per flow it reads 9.4 MB (10.2 MB with
// the fixed front heaps alone, 10.8 MB with the bits alone). The
// ceiling, 10.0 MB, sits just above that, below either change undone.
// The readings were taken with go1.24.0 on linux/amd64: most of this
// heap is maps and slabs whose per-entry size moves with the
// toolchain's map layout and size classes, so a failure right after a
// toolchain change is re-read before it is taken for a regression. The
// per-element facts the saving rests on are pinned apart, free of the
// toolchain: TestCellsAreValueWords (telemetry), TestFlowSetCounterBytes
// (udpsim) and TestLaneFrontCapacityFixed (simnet).
func TestLargeWorldHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 980-switch world")
	}
	cfg := ScaleConfig{Topo: "fattree:28", Shards: 2, Flows: 1_000_000, Pairs: 256, Rate: 1, Seed: 7}.defaults()
	g, err := topology.FromSpec(cfg.Topo)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	w, fs, _, err := newScaleWorld(g, deflect.NotInputPort{}, udpsim.ArrivalPoisson, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	runtime.KeepAlive(fs)
	mb := float64(ms.HeapAlloc-before) / (1 << 20)
	t.Logf("live heap of the world: %.1f MB", mb)
	if mb > 10.0 {
		t.Errorf("fattree:28 world with 10^6 flows holds %.1f MB of heap, budget 10.0 MB", mb)
	}
}

// Allocation budget of one Fig. 5 cell through RunTCP: Net15, NIP, full
// protection, SW7–SW13 down for the whole 2-s run, measured after a
// warm-up run has filled the process's packet and ring depots. While a
// finished world left its in-flight packets and train rings to the
// collector, every run made its data plane anew: 599 allocations, read
// with go1.24.0; handing them back on Close, a run makes 277. The
// ceiling sits between the two, so a world that stops handing back what
// it holds when it closes fails here. Two runs back to back in one
// process — the second drawing on what the first handed back — must
// also give the same goodput series and the same metric dump.
func TestRunTCPAllocationBudget(t *testing.T) {
	pairs, err := net15Protection("full")
	if err != nil {
		t.Fatal(err)
	}
	cfg := TCPRunConfig{
		Graph: shared("net15"), Policy: "nip", Src: "AS1", Dst: "AS3",
		Protection: pairs, ReverseBitBudget: reverseBudget("full"), TCP: net15TCP(),
		Duration: 2 * time.Second, Seed: 7,
		Failures: []FailureSpec{{A: "SW7", B: "SW13", Duration: 2 * time.Second}},
	}
	run := func() (*TCPRunResult, string) {
		res, err := RunTCP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Metrics.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	first, firstDump := run()
	second, secondDump := run()
	if !reflect.DeepEqual(first.Goodput, second.Goodput) {
		t.Errorf("back-to-back runs gave different goodput series:\n%v\n%v", first.Goodput, second.Goodput)
	}
	if firstDump != secondDump {
		t.Error("back-to-back runs gave different metric dumps")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunTCP(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 400 {
		t.Errorf("a Fig. 5 cell allocated %.0f times, budget 400", allocs)
	}
}
