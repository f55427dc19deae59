package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "code", "200")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	// Same name+labels returns the same series.
	if r.Counter("requests_total", "code", "200") != c {
		t.Error("re-registration returned a different counter")
	}
	if got := r.CounterValue("requests_total", "code", "200"); got != 5 {
		t.Errorf("CounterValue = %d, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestSumCounterAcrossSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("drops_total", "reason", "ttl", "where", "A").Add(3)
	r.Counter("drops_total", "reason", "ttl", "where", "B").Add(2)
	r.Counter("drops_total", "reason", "queue", "where", "A").Add(7)
	if got := r.SumCounter("drops_total"); got != 12 {
		t.Errorf("family sum = %d, want 12", got)
	}
	if got := r.SumCounter("drops_total", "reason", "ttl"); got != 5 {
		t.Errorf("ttl sum = %d, want 5", got)
	}
	if got := r.SumCounter("drops_total", "reason", "ttl", "where", "B"); got != 2 {
		t.Errorf("ttl@B sum = %d, want 2", got)
	}
}

func TestBaseLabelsStampEverySeries(t *testing.T) {
	r := NewRegistry(WithBaseLabels("policy", "nip"))
	r.Counter("x_total", "k", "v").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `x_total{k="v",policy="nip"} 1`) {
		t.Errorf("base label missing from exposition:\n%s", b.String())
	}
}

// TestHistogramBucketBoundaries pins the "le" semantics: a sample on a
// bound lands in that bucket, the first value above the top bound lands
// in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hops", []float64{2, 4}, "flow", "a")
	for _, v := range []float64{1, 2, 2.5, 4, 5} {
		h.Observe(v)
	}
	bounds, counts := h.bounds, h.counts
	if len(bounds) != 2 || bounds[0] != 2 || bounds[1] != 4 {
		t.Fatalf("bounds = %v, want [2 4]", bounds)
	}
	want := []int64{2, 2, 1} // le=2: {1,2}; le=4: {2.5,4}; +Inf: {5}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 5 || h.Sum() != 14.5 {
		t.Errorf("count/sum = %d/%v, want 5/14.5", h.Count(), h.Sum())
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hops", []float64{2, 4})
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty Quantile = %v, want NaN", q)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hops", []float64{2, 4})
	h.Observe(3)
	// The only sample sits in (2,4]; linear interpolation puts the
	// median at the midpoint.
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("Quantile(0.5) = %v, want 3", q)
	}
	if q := h.Quantile(1); q != 4 {
		t.Errorf("Quantile(1) = %v, want 4", q)
	}
}

func TestHistogramInfBucketQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hops", []float64{2, 4})
	h.Observe(100)
	// +Inf samples resolve to the highest finite bound.
	if q := h.Quantile(0.99); q != 4 {
		t.Errorf("Quantile(0.99) = %v, want 4", q)
	}
}

// TestHistogramMergeShards models the -workers harness: per-worker
// registries merged into one must agree with a single registry that saw
// every observation, regardless of merge order.
func TestHistogramMergeShards(t *testing.T) {
	shard := func(vals ...float64) *Registry {
		r := NewRegistry()
		h := r.Histogram("hops", []float64{2, 4, 8}, "flow", "a")
		for _, v := range vals {
			h.Observe(v)
		}
		return r
	}
	a := shard(1, 3, 5)
	b := shard(2, 7, 9, 4)

	ab, ba := NewRegistry(), NewRegistry()
	ab.Merge(a)
	ab.Merge(b)
	ba.Merge(b)
	ba.Merge(a)

	direct := shard(1, 3, 5, 2, 7, 9, 4)
	var wantB, gotAB, gotBA strings.Builder
	if err := direct.WritePrometheus(&wantB); err != nil {
		t.Fatal(err)
	}
	if err := ab.WritePrometheus(&gotAB); err != nil {
		t.Fatal(err)
	}
	if err := ba.WritePrometheus(&gotBA); err != nil {
		t.Fatal(err)
	}
	if gotAB.String() != wantB.String() {
		t.Errorf("merged exposition differs from direct:\n--- merged\n%s--- direct\n%s", gotAB.String(), wantB.String())
	}
	if gotAB.String() != gotBA.String() {
		t.Errorf("merge order changed the exposition:\n--- a,b\n%s--- b,a\n%s", gotAB.String(), gotBA.String())
	}

	h := ab.Histogram("hops", []float64{2, 4, 8}, "flow", "a")
	if h.Count() != 7 || h.Sum() != 31 {
		t.Errorf("merged count/sum = %d/%v, want 7/31", h.Count(), h.Sum())
	}
}

func TestRebuildHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hops", []float64{2, 4})
	for _, v := range []float64{1, 3, 3, 5} {
		h.Observe(v)
	}
	rb := RebuildHistogram(h.bounds, h.counts, h.Count(), h.Sum())
	if rb.Count() != 4 || rb.Sum() != 12 {
		t.Errorf("rebuilt count/sum = %d/%v, want 4/12", rb.Count(), rb.Sum())
	}
	if q, want := rb.Quantile(0.5), h.Quantile(0.5); q != want {
		t.Errorf("rebuilt Quantile(0.5) = %v, want %v", q, want)
	}
}

func TestPrometheusExpositionShape(t *testing.T) {
	r := NewRegistry()
	r.Help("hops", "Hop counts.")
	h := r.Histogram("hops", []float64{2, 4}, "flow", "a")
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP hops Hop counts.
# TYPE hops histogram
hops_bucket{flow="a",le="2"} 1
hops_bucket{flow="a",le="4"} 2
hops_bucket{flow="a",le="+Inf"} 3
hops_sum{flow="a"} 13
hops_count{flow="a"} 3
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestHelpBeforeCreateAndThroughMerge pins two behaviors the simulator
// relies on: HELP text may be registered before any series exists, and
// merging shard registries into a collector carries the text along.
func TestHelpBeforeCreateAndThroughMerge(t *testing.T) {
	r := NewRegistry()
	r.Help("hops", "Hop counts.")
	r.Counter("hops").Inc() // family created after Help
	merged := NewRegistry()
	merged.Merge(r)
	var b strings.Builder
	if err := merged.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# HELP hops Hop counts.\n") {
		t.Errorf("HELP text lost across Merge:\n%s", b.String())
	}
}

func TestEventLogRingAndEviction(t *testing.T) {
	now := time.Duration(0)
	reg := NewRegistry()
	log := NewEventLog(3, func() time.Duration { return now })
	log.SetEvictedCounter(reg.Counter("evicted_total"))

	kinds := []string{EventLinkFail, EventLinkRepair, EventDeflect, EventReencode, EventPolicyDrop}
	for i, k := range kinds {
		now = time.Duration(i) * time.Millisecond
		log.Record(k, "SW1", "d")
	}
	evs := log.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	if got := reg.CounterValue("evicted_total"); got != 2 {
		t.Errorf("evicted counter = %d, want 2", got)
	}
	// Oldest two evicted; survivors in order with virtual-clock stamps.
	for i, ev := range evs {
		wantKind := kinds[i+2]
		wantAt := time.Duration(i+2) * time.Millisecond
		if ev.Kind != wantKind || ev.At != wantAt {
			t.Errorf("event %d = %s at %v, want %s at %v", i, ev.Kind, ev.At, wantKind, wantAt)
		}
	}
}

func TestCollectorDeterministicAcrossAddOrder(t *testing.T) {
	mkRun := func(policy string, n int64) (*Registry, *EventLog) {
		r := NewRegistry(WithBaseLabels("policy", policy))
		r.Counter("kar_net_sends_total").Add(n)
		r.Histogram("kar_flow_stretch_hops", HopBuckets, "flow", "S->D").Observe(float64(n))
		log := NewEventLog(8, func() time.Duration { return time.Duration(n) })
		log.Record(EventDeflect, "SW1", "port-down")
		return r, log
	}

	expose := func(order []string) (string, string) {
		c := NewCollector()
		for _, p := range order {
			r, l := mkRun(p, int64(len(p)))
			c.Add("run/"+p, r, l)
		}
		var prom, js strings.Builder
		if err := c.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return prom.String(), js.String()
	}

	p1, j1 := expose([]string{"none", "hp", "avp", "nip"})
	p2, j2 := expose([]string{"nip", "avp", "hp", "none"})
	if p1 != p2 {
		t.Errorf("Prometheus dump depends on Add order:\n--- fwd\n%s--- rev\n%s", p1, p2)
	}
	if j1 != j2 {
		t.Errorf("JSON dump depends on Add order:\n--- fwd\n%s--- rev\n%s", j1, j2)
	}
	if p1 == "" || !strings.Contains(p1, `policy="nip"`) {
		t.Errorf("dump missing expected series:\n%s", p1)
	}
}

func TestCollectorNilAddIsSafe(t *testing.T) {
	var c *Collector
	c.Add("run", NewRegistry(), nil) // must not panic
}
