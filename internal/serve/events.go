package serve

import (
	"encoding/json"
	"strconv"
	"sync"

	"repro/internal/scenario"
)

// jobEvent is one line of a job's progress stream: either a state
// transition (kind "state") or a live execution milestone forwarded
// from the scenario/sweep engine (run_start, phase, inject, run_done,
// and sweep, one per finished (route, policy) unit of a sweep).
type jobEvent struct {
	Job   string   `json:"job"`
	State JobState `json:"state,omitempty"`
	scenario.ProgressEvent
}

// eventBuf is an append-only broadcast buffer: every streamer reads
// the full history from its own cursor, and a closed notify channel
// wakes all of them when new events land. finish marks the stream
// complete — streamers drain the tail and stop instead of waiting.
type eventBuf struct {
	mu     sync.Mutex
	events [][]byte
	notify chan struct{}
	// handed records that next gave the current notify channel to a
	// streamer: only then can anyone be waiting on it, and only then
	// does an append have to close it and make another.
	handed bool
	done   bool
}

func newEventBuf() *eventBuf { return &eventBuf{notify: make(chan struct{})} }

// append encodes ev onto the stream and wakes every waiter. Appends
// after finish are dropped.
func (b *eventBuf) append(ev jobEvent) {
	data, err := encodeEvent(ev)
	if err != nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	b.events = append(b.events, data)
	if b.handed {
		close(b.notify)
		b.notify = make(chan struct{})
		b.handed = false
	}
}

// encodeEvent renders one stream line, byte for byte what json.Marshal
// gives. An event that carries nothing but its kind, a state and sweep
// counts is appended field by field: state changes (three per job)
// and sweep progress (a verify job emits one per (route, policy) unit,
// 12 on Net15's all-pairs nip,dtree sweep) are most of what a job
// streams. The few others take the reflective encoder.
func encodeEvent(ev jobEvent) ([]byte, error) {
	bare := scenario.ProgressEvent{Kind: ev.Kind, SweepDone: ev.SweepDone, SweepTotal: ev.SweepTotal}
	if ev.ProgressEvent != bare || !jsonPlain(ev.Job) || !jsonPlain(string(ev.State)) || !jsonPlain(ev.Kind) {
		return json.Marshal(ev)
	}
	var buf [96]byte // the line of a 7-character job ID is under 80 bytes
	b := append(append(buf[:0], `{"job":"`...), ev.Job...)
	if ev.State != "" {
		b = append(append(b, `","state":"`...), ev.State...)
	}
	b = append(append(b, `","kind":"`...), ev.Kind...)
	b = append(b, `","run":0`...)
	if ev.SweepDone != 0 {
		b = strconv.AppendInt(append(b, `,"sweep_done":`...), int64(ev.SweepDone), 10)
	}
	if ev.SweepTotal != 0 {
		b = strconv.AppendInt(append(b, `,"sweep_total":`...), int64(ev.SweepTotal), 10)
	}
	b = append(b, '}')
	return append(make([]byte, 0, len(b)), b...), nil // retained with the job: exact size
}

// jsonPlain reports whether encoding/json renders s between quotes as
// it stands: printable ASCII with nothing it escapes.
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// finish ends the stream. The notify channel stays closed so late
// subscribers return immediately after draining history.
func (b *eventBuf) finish() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	b.done = true
	close(b.notify)
}

// next returns the events at and after cursor from, a channel that
// closes on the next append, and whether the stream has ended.
func (b *eventBuf) next(from int) ([][]byte, <-chan struct{}, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from > len(b.events) {
		from = len(b.events)
	}
	b.handed = true
	return b.events[from:], b.notify, b.done
}
