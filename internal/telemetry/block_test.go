package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// linkLabels names cell i of a per-direction block the way simnet
// does: two cells per link.
func linkLabels(i int, dst []string) []string {
	return append(dst, "link", fmt.Sprintf("L%d", i/2), "dir", [2]string{"fwd", "rev"}[i%2])
}

func upLabels(i int, dst []string) []string { return append(dst, "link", fmt.Sprintf("L%d", i)) }

// fillBlocks and fillSingles register the same series with the same
// values — some left at zero — one through CounterVec/GaugeVec, the
// other one series at a time.
func fillBlocks(r *Registry) {
	r.Help("sent_total", "Packets sent.")
	sent := r.CounterVec("sent_total", 6, linkLabels)
	up := r.GaugeVec("link_up", 3, upLabels)
	for i := range sent {
		sent[i].Add(int64(i % 3 * 10)) // cells 0 and 3 stay zero
	}
	up[1].Set(1)
	r.Counter("drops_total", "reason", "ttl").Add(4)
}

func fillSingles(r *Registry) {
	r.Help("sent_total", "Packets sent.")
	for i := 0; i < 6; i++ {
		r.Counter("sent_total", linkLabels(i, nil)...).Add(int64(i % 3 * 10))
	}
	for i := 0; i < 3; i++ {
		g := r.Gauge("link_up", upLabels(i, nil)...)
		if i == 1 {
			g.Set(1)
		}
	}
	r.Counter("drops_total", "reason", "ttl").Add(4)
}

// dumps renders every exposition of a registry: its own Prometheus
// text, and the Prometheus text and JSON after a Collector.Add.
func dumps(t *testing.T, r *Registry) [3]string {
	t.Helper()
	var out [3]bytes.Buffer
	c := NewCollector()
	c.Add("run", r, nil)
	for i, err := range []error{
		r.WritePrometheus(&out[0]), c.WritePrometheus(&out[1]), c.WriteJSON(&out[2]),
	} {
		if err != nil {
			t.Fatalf("dump %d: %v", i, err)
		}
	}
	return [3]string{out[0].String(), out[1].String(), out[2].String()}
}

// A registry filled through blocks and one filled series by series are
// the same registry to every reader, zero-valued series and base
// labels included.
func TestBlocksEqualSingles(t *testing.T) {
	blocks := NewRegistry(WithBaseLabels("policy", "nip", "arm", "x"))
	singles := NewRegistry(WithBaseLabels("policy", "nip", "arm", "x"))
	fillBlocks(blocks)
	fillSingles(singles)
	got, want := dumps(t, blocks), dumps(t, singles)
	for i, name := range []string{"WritePrometheus", "Collector.WritePrometheus", "Collector.WriteJSON"} {
		if got[i] != want[i] {
			t.Errorf("%s differs:\nblocks:\n%s\nsingles:\n%s", name, got[i], want[i])
		}
	}
	if n := strings.Count(got[0], "\nsent_total{"); n != 6 {
		t.Errorf("dump carries %d sent_total series, want 6 (zero-valued ones included):\n%s", n, got[0])
	}
}

// A cell is its value word: labels live in the family's keyed index,
// so a block of n cells that nobody reads by label costs 8n bytes.
func TestCellsAreValueWords(t *testing.T) {
	if sz := unsafe.Sizeof(Counter{}); sz != 8 {
		t.Errorf("sizeof(Counter) = %d, want 8", sz)
	}
	if sz := unsafe.Sizeof(Gauge{}); sz != 8 {
		t.Errorf("sizeof(Gauge) = %d, want 8", sz)
	}
}

// Keying changes no reader's bytes: each reader gives the same output
// as the first read of never-keyed blocks as it gives once every
// family has been keyed.
func TestBlockReadsSameBeforeAndAfterKeying(t *testing.T) {
	prom := func(r *Registry) string {
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	readers := []struct {
		name string
		read func(*Registry) string
	}{
		{"WritePrometheus", prom},
		{"Snapshot", func(r *Registry) string {
			j, err := json.Marshal(r.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return string(j)
		}},
		{"SumCounter(dir=rev)", func(r *Registry) string { return fmt.Sprint(r.SumCounter("sent_total", "dir", "rev")) }},
		{"Merge", func(r *Registry) string {
			m := NewRegistry()
			m.Merge(r)
			return prom(m)
		}},
	}
	fresh := func() *Registry {
		r := NewRegistry(WithBaseLabels("policy", "nip"))
		fillBlocks(r)
		return r
	}
	for _, rd := range readers {
		unkeyed := fresh()
		for name, f := range unkeyed.families {
			if len(f.series) != 0 {
				t.Fatalf("%s keyed before any read", name)
			}
		}
		before := rd.read(unkeyed)
		keyed := fresh()
		if err := keyed.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		if after := rd.read(keyed); after != before {
			t.Errorf("%s differs after keying:\nbefore:\n%s\nafter:\n%s", rd.name, before, after)
		}
	}
	if got := readers[2].read(fresh()); got != "30" {
		t.Errorf("SumCounter(dir=rev) = %s, want 30", got)
	}
	if got := strings.Count(readers[3].read(fresh()), "\nsent_total{"); got != 6 {
		t.Errorf("Merge result carries %d sent_total series, want 6", got)
	}
}

func TestBlockLookups(t *testing.T) {
	r := NewRegistry(WithBaseLabels("policy", "nip"))
	sent := r.CounterVec("sent_total", 6, linkLabels)
	for i := range sent {
		sent[i].Add(int64(i + 1))
	}
	// The whole-family sum reads the slab and builds no label.
	if got := r.SumCounter("sent_total"); got != 21 {
		t.Errorf("unfiltered SumCounter = %d, want 21", got)
	}
	if f := r.families["sent_total"]; len(f.pending) != 1 || len(f.series) != 0 {
		t.Errorf("unfiltered SumCounter materialised the block: %d pending, %d series", len(f.pending), len(f.series))
	}
	// Keyed reads materialise it and find the block's own cells.
	if got := r.SumCounter("sent_total", "dir", "rev"); got != 2+4+6 {
		t.Errorf("SumCounter(dir=rev) = %d, want 12", got)
	}
	if f := r.families["sent_total"]; len(f.pending) != 0 || len(f.series) != 6 {
		t.Errorf("filtered SumCounter left %d pending, %d series", len(f.pending), len(f.series))
	}
	if got := r.SumCounter("sent_total"); got != 21 {
		t.Errorf("unfiltered SumCounter after materialisation = %d, want 21", got)
	}
	if got := r.CounterValue("sent_total", "link", "L1", "dir", "fwd"); got != 3 {
		t.Errorf("CounterValue(L1,fwd) = %d, want 3", got)
	}
	if c := r.Counter("sent_total", "dir", "fwd", "link", "L1"); c != &sent[2] {
		t.Error("Counter by label returned a series other than the block's cell")
	}

	// A fresh block on an already-read family is found by the next read.
	fresh := NewRegistry()
	fresh.CounterVec("x_total", 2, upLabels)[1].Add(5)
	if got := fresh.CounterValue("x_total", "link", "L1"); got != 5 {
		t.Errorf("CounterValue on an unmaterialised block = %d, want 5", got)
	}
	fresh.CounterVec("x_total", 1, func(_ int, dst []string) []string { return append(dst, "link", "L9") })[0].Add(2)
	if got := fresh.CounterValue("x_total", "link", "L9"); got != 2 {
		t.Errorf("CounterValue on a second block = %d, want 2", got)
	}
}

func TestBlockDuplicateSeriesPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("two cells, one label set", func() {
		r := NewRegistry()
		r.CounterVec("x_total", 2, func(_ int, dst []string) []string { return append(dst, "k", "v") })
		r.WritePrometheus(new(bytes.Buffer))
	})
	mustPanic("block after singleton", func() {
		r := NewRegistry()
		r.Counter("x_total", "link", "L0")
		r.CounterVec("x_total", 1, upLabels)
		r.CounterValue("x_total", "link", "L0")
	})
	// A registry that is only ever merged is never materialised: Merge
	// finds the pair twice itself.
	mustPanic("two cells, one label set, merged", func() {
		r := NewRegistry()
		r.CounterVec("x_total", 2, func(_ int, dst []string) []string { return append(dst, "k", "v") })
		NewCollector().Add("run", r, nil)
	})
	mustPanic("block after singleton, merged", func() {
		world := func() *Registry {
			r := NewRegistry(WithBaseLabels("policy", "nip"))
			r.Counter("x_total", "link", "L0")
			return r
		}
		c := NewCollector()
		c.Add("first", world(), nil) // the collector already holds the series
		r := world()
		r.CounterVec("x_total", 1, upLabels)
		c.Add("second", r, nil)
	})
	mustPanic("keyed series and block, merged", func() {
		r := NewRegistry()
		r.CounterVec("x_total", 1, upLabels)
		r.CounterValue("x_total", "link", "L0")
		r.CounterVec("x_total", 1, upLabels)
		NewCollector().Add("run", r, nil)
	})
	mustPanic("gauge block on a counter family", func() {
		r := NewRegistry()
		r.Counter("x_total")
		r.GaugeVec("x_total", 1, upLabels)
	})
}

// Lanes increment block cells while another goroutine takes the
// family's first snapshot (run under -race): materialisation writes
// only the family's index, increments only the cells.
func TestBlockMaterialisesUnderConcurrentInc(t *testing.T) {
	const lanes, perLane = 4, 2000
	r := NewRegistry()
	sent := r.CounterVec("sent_total", 2*lanes, linkLabels)
	up := r.GaugeVec("link_up", lanes, upLabels)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perLane; i++ {
				sent[2*lane].Inc()
				sent[2*lane+1].Add(2)
				up[lane].Set(float64(i))
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if err := r.WritePrometheus(new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
		r.CounterValue("sent_total", "link", "L0", "dir", "fwd")
	}
	wg.Wait()
	if got := r.SumCounter("sent_total"); got != lanes*perLane*3 {
		t.Errorf("sum after concurrent materialisation = %d, want %d", got, lanes*perLane*3)
	}
}
