package telemetry

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// Counter/Gauge/Histogram stay get-or-create while the family is
// unkeyed: the same pairs — in either order — name the same cell, other
// pairs another, and nothing is keyed until somebody reads by label.
func TestLazySingleGetOrCreate(t *testing.T) {
	r := NewRegistry(WithBaseLabels("policy", "nip"))
	c := r.Counter("udp_sent_total", "flow", "a->b", "run", "0")
	if r.Counter("udp_sent_total", "flow", "a->b", "run", "0") != c {
		t.Error("same pairs returned another counter")
	}
	if r.Counter("udp_sent_total", "run", "0", "flow", "a->b") != c {
		t.Error("same pairs in the other order returned another counter")
	}
	if r.Counter("udp_sent_total", "flow", "a->b", "run", "1") == c {
		t.Error("other pairs returned the same counter")
	}
	if r.Counter("udp_sent_total", "flow", "a->b") == c {
		t.Error("a prefix of the pairs returned the same counter")
	}
	g := r.Gauge("up", "link", "L0")
	if r.Gauge("up", "link", "L0") != g || r.Gauge("up") == g {
		t.Error("gauge get-or-create broken")
	}
	h := r.Histogram("hops", nil, "flow", "a->b")
	if r.Histogram("hops", HopBuckets, "flow", "a->b") != h {
		t.Error("histogram get-or-create broken")
	}
	for name, want := range map[string]int{"udp_sent_total": 3, "up": 2, "hops": 1} {
		if f := r.families[name]; len(f.pending) != want || len(f.series) != 0 {
			t.Errorf("%s: %d pending, %d keyed; want %d pending and nothing keyed", name, len(f.pending), len(f.series), want)
		}
	}

	// Unfiltered totals need no key; a filtered one keys the family,
	// after which both orders still find the cell.
	c.Add(5)
	r.Counter("udp_sent_total", "flow", "a->b", "run", "1").Add(2)
	if got := r.SumCounter("udp_sent_total"); got != 7 {
		t.Errorf("unfiltered SumCounter = %d, want 7", got)
	}
	if f := r.families["udp_sent_total"]; len(f.series) != 0 {
		t.Error("unfiltered SumCounter keyed the family")
	}
	if got := r.SumCounter("udp_sent_total", "run", "0"); got != 5 {
		t.Errorf("SumCounter(run=0) = %d, want 5", got)
	}
	if f := r.families["udp_sent_total"]; len(f.pending) != 0 || len(f.series) != 3 {
		t.Errorf("filtered SumCounter left %d pending, %d keyed", len(f.pending), len(f.series))
	}
	if r.Counter("udp_sent_total", "run", "0", "flow", "a->b") != c || r.Counter("udp_sent_total", "flow", "a->b", "run", "0") != c {
		t.Error("keyed family returned another counter for the same pairs")
	}
	if got := r.CounterValue("udp_sent_total", "run", "1", "flow", "a->b"); got != 2 {
		t.Errorf("CounterValue = %d, want 2", got)
	}
}

// A family's single series wait unkeyed up to a bound: registration
// lazyMax+1 keys the family, and every series — filed before or after —
// stays unique and findable.
func TestLazyListSpillsToKeyed(t *testing.T) {
	r := NewRegistry()
	const n = lazyMax + 4
	cells := make([]*Counter, n)
	for i := range cells {
		cells[i] = r.Counter("drops_total", "link", fmt.Sprintf("L%d", i))
		cells[i].Add(int64(i))
	}
	if f := r.families["drops_total"]; len(f.pending) != 0 || len(f.series) != n {
		t.Errorf("%d pending, %d keyed after %d registrations; want 0 and %d", len(f.pending), len(f.series), n, n)
	}
	for i := range cells {
		if r.Counter("drops_total", "link", fmt.Sprintf("L%d", i)) != cells[i] {
			t.Errorf("series %d re-registered as another cell", i)
		}
	}
	if got, want := r.SumCounter("drops_total"), int64(n*(n-1)/2); got != want {
		t.Errorf("SumCounter = %d, want %d", got, want)
	}
}

// register files one world's worth of single series the way the
// layers do: label-less totals, per-flow counters in both label
// orders, histograms, a gauge — calling after after each one.
func registerSingles(r *Registry, after func()) {
	step := func() {
		if after != nil {
			after()
		}
	}
	r.Help("ctrl_installs_total", "Routes installed.")
	r.Counter("ctrl_installs_total").Add(3)
	step()
	r.Counter("ctrl_reencodes_total")
	step()
	for i, flow := range []string{"AS1->AS3", "AS3->AS1", "AS2->AS3"} {
		r.Counter("udp_sent_total", "flow", flow).Add(int64(10 * i))
		step()
		r.Counter("udp_sent_total", "flow", flow).Inc()
		step()
		r.Counter("tcp_rx_total", "flow", flow, "order", "in").Add(7)
		step()
		r.Counter("tcp_rx_total", "order", "ooo", "flow", flow)
		step()
		r.Histogram("flow_hops", HopBuckets, "flow", flow).Observe(float64(4 + i))
		step()
		r.Histogram("flow_latency_us", LatencyBucketsUs, "flow", flow).Observe(300)
		step()
	}
	r.Gauge("queue_depth").Set(2)
	step()
	r.Gauge("jobs", "state", "done").Add(1)
	step()
}

// When the label sets are built changes nothing a reader sees: a
// registry keyed only by its final dump and one keyed after every
// single registration (the eager registry this one replaced) render the
// same bytes and sums.
func TestLazySinglesEqualEager(t *testing.T) {
	lazy := NewRegistry(WithBaseLabels("policy", "nip", "arm", "x"))
	eager := NewRegistry(WithBaseLabels("policy", "nip", "arm", "x"))
	registerSingles(lazy, nil)
	registerSingles(eager, func() {
		if err := eager.WritePrometheus(new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
	})
	for name, f := range lazy.families {
		if len(f.series) != 0 {
			t.Errorf("%s keyed before any read", name)
		}
	}
	for _, q := range [][]string{{"udp_sent_total"}, {"udp_sent_total", "flow", "AS3->AS1"}, {"tcp_rx_total", "order", "in"}} {
		if got, want := lazy.SumCounter(q[0], q[1:]...), eager.SumCounter(q[0], q[1:]...); got != want {
			t.Errorf("SumCounter%v = %d, eager %d", q, got, want)
		}
	}
	got, want := dumps(t, lazy), dumps(t, eager)
	for i, name := range []string{"WritePrometheus", "Collector.WritePrometheus", "Collector.WriteJSON"} {
		if got[i] != want[i] {
			t.Errorf("%s differs:\nlazy:\n%s\neager:\n%s", name, got[i], want[i])
		}
	}
}

// Lanes update lazy cells while another goroutine takes the family's
// first snapshot and a third keeps registering (run under -race):
// materialisation writes only the family's index, updates only the cells.
func TestLazyMaterialisesUnderConcurrentUse(t *testing.T) {
	const lanes, perLane = 4, 2000
	r := NewRegistry()
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		c := r.Counter("sent_total", "lane", fmt.Sprint(lane))
		h := r.Histogram("hops", nil, "lane", fmt.Sprint(lane))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perLane; i++ {
				c.Inc()
				h.Observe(4)
				r.Counter("sent_total", "lane", fmt.Sprint(lane)).Inc()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if err := r.WritePrometheus(new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := r.SumCounter("sent_total"); got != 2*lanes*perLane {
		t.Errorf("sum = %d, want %d", got, 2*lanes*perLane)
	}
}
