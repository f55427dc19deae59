package experiment

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fig4Dump runs a shortened Fig4 (all four policies, parallel workers)
// into a fresh collector and returns the Prometheus dump.
func fig4Dump(t *testing.T, seed int64) (string, *telemetry.Collector) {
	t.Helper()
	c := telemetry.NewCollector()
	_, err := Fig4(Fig4Config{
		PreFailure:  2 * time.Second,
		FailureFor:  2 * time.Second,
		PostRepair:  2 * time.Second,
		SampleEvery: 500 * time.Millisecond,
		Seed:        seed,
		Workers:     4,
		Metrics:     c,
	})
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String(), c
}

// TestFig4TelemetryDeterministicAndComplete runs the parallel harness
// twice with the same seed: the merged dumps must be byte-identical
// (worker completion order must not matter) and carry the headline
// series the ISSUE pins.
func TestFig4TelemetryDeterministicAndComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	d1, c := fig4Dump(t, 42)
	d2, _ := fig4Dump(t, 42)
	if d1 != d2 {
		t.Error("same-seed Fig4 telemetry dumps differ")
	}
	for _, want := range []string{
		`kar_switch_deflections_total{cause="port-down",policy="nip"`,
		`kar_net_drops_total{policy=`,
		`kar_flow_stretch_hops_bucket{flow="AS1->AS3",policy=`,
		`kar_tcp_goodput_bytes_total{flow="AS1->AS3",policy=`,
	} {
		if !strings.Contains(d1, want) {
			t.Errorf("dump is missing series %q", want)
		}
	}

	// One run per policy was collected, with deterministic labels.
	events := collectedEvents(t, c)
	runs := make([]string, 0, len(events))
	for r := range events {
		runs = append(runs, r)
	}
	sort.Strings(runs)
	if len(runs) != 4 {
		t.Fatalf("collected %d runs, want 4: %v", len(runs), runs)
	}
	if runs[len(runs)-1] != "none/AS1->AS3/seed=42" {
		t.Errorf("unexpected run label %q", runs[len(runs)-1])
	}
	for _, r := range runs {
		evs := events[r]
		if len(evs) == 0 {
			t.Errorf("run %s has no control-plane events", r)
			continue
		}
		var fail, repair bool
		for _, e := range evs {
			fail = fail || e.Kind == telemetry.EventLinkFail
			repair = repair || e.Kind == telemetry.EventLinkRepair
		}
		if !fail || !repair {
			t.Errorf("run %s missing link fail/repair events (fail=%v repair=%v)", r, fail, repair)
		}
	}

	// The MetricsReport table renders one sorted row per family.
	tbl := MetricsReport(c)
	if len(tbl.Rows) == 0 {
		t.Fatal("MetricsReport is empty")
	}
	var sawStretch bool
	for i, row := range tbl.Rows {
		if i > 0 && row[0] < tbl.Rows[i-1][0] {
			t.Errorf("report rows unsorted: %q after %q", row[0], tbl.Rows[i-1][0])
		}
		if row[0] == "kar_flow_stretch_hops" {
			sawStretch = true
			if row[1] != "histogram" || row[4] == "" || row[5] == "" {
				t.Errorf("stretch row = %v, want histogram with n and p50", row)
			}
		}
	}
	if !sawStretch {
		t.Error("report is missing kar_flow_stretch_hops")
	}
}

// collectedEvents reads a collector's runs and their event streams off
// its JSON exposition.
func collectedEvents(t *testing.T, c *telemetry.Collector) map[string][]telemetry.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events map[string][]telemetry.Event `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Events
}
