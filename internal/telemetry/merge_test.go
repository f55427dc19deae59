package telemetry

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// sameShape builds a world-like registry: per-link blocks of n links,
// a single counter and a histogram. Its labels are names made once, so
// naming a cell allocates only in the registry.
func sameShape(n int) func() *Registry {
	links := make([]string, n)
	for i := range links {
		links[i] = fmt.Sprintf("L%05d", i)
	}
	return func() *Registry {
		r := NewRegistry(WithBaseLabels("policy", "nip"))
		sent := r.CounterVec("sent_total", 2*n, func(i int, dst []string) []string {
			return append(dst, "link", links[i/2], "dir", [2]string{"fwd", "rev"}[i%2])
		})
		r.GaugeVec("link_up", n, func(i int, dst []string) []string { return append(dst, "link", links[i]) })[0].Set(1)
		sent[1].Add(3)
		r.Counter("drops_total", "reason", "ttl").Inc()
		r.Histogram("hops", nil, "flow", "a->b").Observe(4)
		return r
	}
}

// Folding a registry into a collector that already holds every one of
// its series builds no label set, key string or cell: what it allocates
// is the merge's reused buffers, the same at 16 links as at 1024.
func TestMergeSameShapeAllocatesPerMerge(t *testing.T) {
	allocs := func(n int) float64 {
		world := sameShape(n)
		c := NewCollector()
		c.Add("first", world(), nil)
		w := world()
		return testing.AllocsPerRun(20, func() { c.Add("again", w, nil) })
	}
	small, large := allocs(16), allocs(1024)
	t.Logf("%.0f allocations at 16 links, %.0f at 1024", small, large)
	if large != small || large > 8 {
		t.Errorf("merging a same-shape registry allocated %.0f times at 16 links and %.0f at 1024, want one constant ≤ 8", small, large)
	}
}

// Merge names the source's cells without keying it: a retained world
// keeps its pending blocks and its 8-byte cells.
func TestMergeLeavesSourceUnkeyed(t *testing.T) {
	r := NewRegistry(WithBaseLabels("policy", "nip"))
	fillBlocks(r)
	pending := make(map[string]int)
	for name, f := range r.families {
		pending[name] = len(f.pending)
	}
	c := NewCollector()
	c.Add("run", r, nil)
	c.Add("again", r, nil)
	for name, f := range r.families {
		if len(f.series) != 0 || len(f.pending) != pending[name] {
			t.Errorf("%s: %d keyed, %d pending after Merge; want 0 keyed and %d pending", name, len(f.series), len(f.pending), pending[name])
		}
	}
	if got := c.Registry().SumCounter("sent_total"); got != 2*r.SumCounter("sent_total") {
		t.Errorf("collector sums %d sent, want twice the source's %d", got, r.SumCounter("sent_total"))
	}
}

// Workers add their worlds at once (run under -race) while a reader
// dumps the collector; the result is the collector the worlds make one
// at a time.
func TestCollectorAddConcurrent(t *testing.T) {
	const worlds = 8
	world := func(i int) *Registry {
		r := NewRegistry(WithBaseLabels("policy", [2]string{"nip", "hp"}[i%2]))
		fillBlocks(r)
		r.Counter("runs_total", "seed", fmt.Sprint(i%3)).Add(int64(i))
		r.Histogram("hops", nil, "flow", "a->b").Observe(float64(i))
		return r
	}
	expose := func(c *Collector) [2]string {
		var prom, js bytes.Buffer
		if err := c.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return [2]string{prom.String(), js.String()}
	}
	sequential := NewCollector()
	for i := 0; i < worlds; i++ {
		sequential.Add(fmt.Sprint(i), world(i), nil)
	}
	concurrent := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < worlds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent.Add(fmt.Sprint(i), world(i), nil)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := concurrent.WritePrometheus(new(bytes.Buffer)); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if got, want := expose(concurrent), expose(sequential); got != want {
		t.Errorf("concurrent Adds differ from sequential ones:\nconcurrent:\n%s\nsequential:\n%s", got[0], want[0])
	}
}

// Collector.Drop forgets one label value: the series carrying it, the
// families it leaves empty and the runs filed under "key=value/", and
// nothing else. What is left dumps as if the dropped job had never
// been merged.
func TestCollectorDropForgetsLabel(t *testing.T) {
	job := func(id string, extra bool) (*Registry, *EventLog) {
		r := NewRegistry(WithBaseLabels("job", id))
		r.Counter("sent_total", "flow", "a").Add(2)
		if extra {
			r.Histogram("only_in_b", nil).Observe(3)
		}
		ev := NewEventLog(8, func() time.Duration { return 0 })
		ev.Record("link_fail", "L1", "")
		return r, ev
	}
	dump := func(c *Collector) string {
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := NewCollector()
	c := NewCollector()
	for _, id := range []string{"a", "ab", "c"} {
		r, ev := job(id, false)
		want.Add("job="+id+"/run", r, ev)
		r, ev = job(id, false)
		c.Add("job="+id+"/run", r, ev)
	}
	r, ev := job("b", true)
	c.Add("job=b/run", r, ev)
	c.Add("job=b/run2", r, ev)
	c.Drop("job", "b")
	if got := dump(c); got != dump(want) {
		t.Errorf("after Drop:\n%s\nwant\n%s", got, dump(want))
	}
	if n := c.Registry().DropLabel("job", "b"); n != 0 {
		t.Errorf("a second drop removed %d series", n)
	}
}
