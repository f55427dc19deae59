package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one call the harness made into a layer. Names are
// "<module>.<call>"; the module becomes the trace category.
type span struct {
	ID     int
	Parent int // 0: a root
	Name   string
	Track  int // trace thread: 0 the rep loop, 1.. the serve clients
	Rep    int
	Start  time.Duration // since the tracer was created
	Dur    time.Duration
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays one nil test per call.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	rep   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	tr    *tracer
	id    int
	start time.Time
}

// begin starts a span under parent (nil: a root) on the given track.
func (tr *tracer) begin(parent *openSpan, track int, name string) *openSpan {
	if tr == nil {
		return nil
	}
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: pid, Name: name, Track: track, Rep: tr.rep})
	tr.mu.Unlock()
	return &openSpan{tr: tr, id: id, start: time.Now()}
}

func (s *openSpan) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tr.mu.Lock()
	sp := &s.tr.spans[s.id-1]
	sp.Start = s.start.Sub(s.tr.t0)
	sp.Dur = now.Sub(s.start)
	s.tr.mu.Unlock()
}

// call runs fn inside a span.
func (tr *tracer) call(parent *openSpan, name string, fn func()) {
	s := tr.begin(parent, 0, name)
	fn()
	s.end()
}

func (tr *tracer) setRep(i int) {
	if tr != nil {
		tr.mu.Lock()
		tr.rep = i
		tr.mu.Unlock()
	}
}

// selfTimes returns, per span name, each rep's total self time (a
// span's duration minus the part its children cover) and call count.
func (tr *tracer) selfTimes() map[string]map[int]*spanAgg {
	out := make(map[string]map[int]*spanAgg)
	if tr == nil {
		return out
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	child := make([]time.Duration, len(tr.spans)+1)
	for _, s := range tr.spans {
		child[s.Parent] += s.Dur
	}
	for _, s := range tr.spans {
		byRep := out[s.Name]
		if byRep == nil {
			byRep = make(map[int]*spanAgg)
			out[s.Name] = byRep
		}
		a := byRep[s.Rep]
		if a == nil {
			a = &spanAgg{}
			byRep[s.Rep] = a
		}
		a.self += s.Dur - child[s.ID]
		a.calls++
	}
	return out
}

type spanAgg struct {
	self  time.Duration
	calls int
}

// perRepMS is the median over reps of a span name's total self time
// per rep, in milliseconds; 0 when the harness never made that call.
func perRepMS(st map[string]map[int]*spanAgg, name string) float64 {
	var v []float64
	for _, a := range st[name] {
		v = append(v, float64(a.self)/1e6)
	}
	return median(v)
}

// perCallUS is the median over reps of a span name's mean self time
// per call, in microseconds.
func perCallUS(st map[string]map[int]*spanAgg, name string) float64 {
	var v []float64
	for _, a := range st[name] {
		v = append(v, float64(a.self)/1e3/float64(a.calls))
	}
	return median(v)
}

// callsPerRep is the median number of calls per rep.
func callsPerRep(st map[string]map[int]*spanAgg, name string) float64 {
	var v []float64
	for _, a := range st[name] {
		v = append(v, float64(a.calls))
	}
	return median(v)
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing both load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write exports every span as Chrome-trace JSON.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	events := make([]chromeEvent, 0, len(tr.spans))
	for _, s := range tr.spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		events = append(events, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			PID: 1, TID: s.Track,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "rep": s.Rep},
		})
	}
	tr.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
