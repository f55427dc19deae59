package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Event is one structured control-plane record: a link failing or
// repairing, a route installed or re-encoded, a deflection decision.
// At is the simulation's virtual clock — never the wall clock — so
// event streams are deterministic per seed.
type Event struct {
	At     time.Duration `json:"at_ns"`
	Kind   string        `json:"kind"`
	Where  string        `json:"where,omitempty"`  // node or link name
	Detail string        `json:"detail,omitempty"` // free-form context (flow, cause, route)
}

func (e Event) String() string {
	s := fmt.Sprintf("%12v %-14s %s", e.At, e.Kind, e.Where)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Canonical event kinds recorded by the instrumented layers.
const (
	EventLinkFail     = "link_fail"
	EventLinkRepair   = "link_repair"
	EventRouteInstall = "route_install"
	EventReencode     = "reencode"
	EventDeflect      = "deflect"
	EventPolicyDrop   = "policy_drop"
	EventNotify       = "failure_notify"
	// Fault-plane kinds: a switch's delayed *detection* of a link
	// transition (distinct from the physical link_fail/link_repair
	// instants), and a fault injector activating on the timeline.
	EventLinkDetectDown = "link_detect_down"
	EventLinkDetectUp   = "link_detect_up"
	EventFaultInject    = "fault_inject"
	// Reaction-plane kinds: one incremental reroute recompute landing
	// in the table (per affected pair), and an ingress edge's route
	// mapping being (re)programmed — the last control-plane milestone
	// before post-repair traffic flows.
	EventReroute        = "reroute"
	EventIngressInstall = "ingress_install"
)

// DefaultEventCapacity bounds an event log's retention when the caller
// passes no capacity.
const DefaultEventCapacity = 4096

// EventLog is a bounded ring buffer of control-plane events. When full
// it evicts the oldest record, counting the eviction into the registry
// counter SetEvictedCounter gave it. Safe for concurrent use: inside a
// sharded world's parallel window, lanes record into it side by side.
type EventLog struct {
	mu       sync.Mutex
	now      func() time.Duration
	capacity int
	ring     []Event
	start    int // oldest element when the ring is full
	cEvicted *Counter
	tap      func(Event)
}

// NewEventLog builds a log retaining at most capacity events
// (DefaultEventCapacity when <= 0). now supplies virtual-clock
// timestamps; nil stamps every event at 0.
func NewEventLog(capacity int, now func() time.Duration) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{now: now, capacity: capacity}
}

// SetEvictedCounter mirrors ring evictions into a registry counter
// (e.g. kar_events_evicted_total).
func (l *EventLog) SetEvictedCounter(c *Counter) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cEvicted = c
}

// SetTap registers a callback observing every recorded event, fired
// after the ring update and outside the log's lock. Unlike the bounded
// ring, a tap sees events the ring later evicts. Pass nil to disable.
// simnet.Network.SetTraceSink is its one caller.
func (l *EventLog) SetTap(fn func(Event)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tap = fn
}

// Record appends an event stamped at the current virtual time.
func (l *EventLog) Record(kind, where, detail string) {
	var at time.Duration
	if l.now != nil {
		at = l.now()
	}
	l.RecordAt(at, kind, where, detail)
}

// RecordAt appends an event with an explicit virtual timestamp.
// Data-plane callers on sharded worlds must use it (with their node
// Clock's now) instead of Record: the log's own clock is the control
// lane's, which lags inside parallel windows. Combined with the
// canonical sort of SortedEvents, an explicit correct timestamp is
// what keeps exported event streams byte-identical across shard
// counts.
func (l *EventLog) RecordAt(at time.Duration, kind, where, detail string) {
	e := Event{At: at, Kind: kind, Where: where, Detail: detail}
	l.mu.Lock()
	if len(l.ring) < l.capacity {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.start] = e
		l.start = (l.start + 1) % l.capacity
		if l.cEvicted != nil {
			l.cEvicted.Inc()
		}
	}
	tap := l.tap
	l.mu.Unlock()
	if tap != nil {
		tap(e)
	}
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.start:]...)
	out = append(out, l.ring[:l.start]...)
	return out
}

// SortedEvents returns the retained events in canonical export order:
// by (At, Kind, Where, Detail). Within one virtual instant the
// arrival order of records from concurrent shard lanes is scheduling
// luck, but the *set* is deterministic, and identical records are
// interchangeable — so sorting on export (here and in the Collector)
// makes every dump byte-identical across shard counts. Events keeps
// the raw arrival order for taps and tests.
func (l *EventLog) SortedEvents() []Event {
	out := l.Events()
	sortEvents(out)
	return out
}

// sortEvents orders events canonically; the sort is stable over fully
// equal records by construction (every field participates in the key).
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Where != b.Where {
			return a.Where < b.Where
		}
		return a.Detail < b.Detail
	})
}
