package telemetry

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
)

// Collector accumulates telemetry across many simulated worlds — the
// parallel `-workers` harness merges each finished run's registry and
// event log here. Metric merges commute, and the exposition sorts both
// series and runs, so the dump is independent of worker completion
// order: two invocations with the same seed are byte-identical.
type Collector struct {
	mu   sync.Mutex
	reg  *Registry
	runs map[string][]Event
}

// NewCollector builds an empty collector.
func NewCollector() *Collector {
	return &Collector{reg: NewRegistry(), runs: make(map[string][]Event)}
}

// Add merges one run's registry and (optionally) event log under a
// unique run label. Labels must be deterministic per run — derive them
// from the run's policy/flow/seed, never from time or scheduling.
func (c *Collector) Add(run string, reg *Registry, ev *EventLog) {
	if c == nil {
		return
	}
	var events []Event
	if ev != nil {
		// Canonical order: exported dumps must not depend on the
		// arrival interleaving of concurrent shard lanes.
		events = ev.SortedEvents()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Merge(reg)
	if events != nil {
		c.runs[run] = events
	}
}

// Drop forgets what was collected under the label key=value: every
// series that carries it and every run whose label starts with
// "key=value/" (the serve daemon files a job's runs under
// "job=<id>/…" and labels its series job=<id>).
func (c *Collector) Drop(key, value string) {
	prefix := key + "=" + value + "/"
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.DropLabel(key, value)
	for run := range c.runs {
		if strings.HasPrefix(run, prefix) {
			delete(c.runs, run)
		}
	}
}

// Registry returns the merged registry.
func (c *Collector) Registry() *Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reg
}

// WritePrometheus renders the merged registry in Prometheus text
// format.
func (c *Collector) WritePrometheus(w io.Writer) error {
	return c.Registry().WritePrometheus(w)
}

// dump is the JSON exposition shape: the merged metrics snapshot plus
// the per-run control-plane event streams.
type dump struct {
	Metrics Snapshot           `json:"metrics"`
	Events  map[string][]Event `json:"events,omitempty"`
}

// WriteJSON writes the merged metrics and every run's event stream as
// indented JSON (map keys are sorted by encoding/json).
func (c *Collector) WriteJSON(w io.Writer) error {
	c.mu.Lock()
	snap := c.reg.Snapshot()
	events := make(map[string][]Event, len(c.runs))
	for k, v := range c.runs {
		events[k] = v
	}
	c.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump{Metrics: snap, Events: events})
}
