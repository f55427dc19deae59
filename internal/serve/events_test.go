package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/scenario"
)

// Every line of the stream must be json.Marshal's rendering of its
// event, whichever encoder produced it: one event of each kind, the
// state event of every job state, plus the sweep and state shapes
// that must not take (or must survive) the appended path.
func TestEncodeEventMatchesJSONMarshal(t *testing.T) {
	pe := func(ev scenario.ProgressEvent) jobEvent { return jobEvent{Job: "j000007", ProgressEvent: ev} }
	events := map[string]jobEvent{
		"state":     {Job: "j000007", State: StateRunning, ProgressEvent: scenario.ProgressEvent{Kind: "state"}},
		"run_start": pe(scenario.ProgressEvent{Kind: "run_start", Run: 1, Seed: 42}),
		"phase": pe(scenario.ProgressEvent{Kind: "phase", Run: 1, Seed: 42,
			Phase: &scenario.PhaseStats{Name: "warm", Sent: 10, Received: 9}}),
		"inject":   pe(scenario.ProgressEvent{Kind: "inject", Run: 1, Seed: 42, Injection: "fail SW7-SW13 <&>"}),
		"run_done": pe(scenario.ProgressEvent{Kind: "run_done", Run: 1, Seed: 42, Result: &scenario.RunResult{Run: 1, Seed: 42}}),
		"sweep":    pe(scenario.ProgressEvent{Kind: "sweep", SweepDone: 17, SweepTotal: 1476}),

		"sweep, zero counts":   pe(scenario.ProgressEvent{Kind: "sweep"}),
		"sweep, extra field":   pe(scenario.ProgressEvent{Kind: "sweep", Run: 2, SweepDone: 1, SweepTotal: 2}),
		"sweep, with state":    {Job: "j1", State: StateDone, ProgressEvent: scenario.ProgressEvent{Kind: "sweep", SweepDone: 1, SweepTotal: 2}},
		"sweep, escaped job":   {Job: "a\"b<c>\u2028é", ProgressEvent: scenario.ProgressEvent{Kind: "sweep", SweepDone: 1, SweepTotal: 2}},
		"sweep, control chars": {Job: "a\tb\x7f", ProgressEvent: scenario.ProgressEvent{Kind: "sweep", SweepDone: 1, SweepTotal: 2}},

		"state, escaped state": {Job: "j1", State: "a<b", ProgressEvent: scenario.ProgressEvent{Kind: "state"}},
		"state, escaped kind":  {Job: "j1", State: StateDone, ProgressEvent: scenario.ProgressEvent{Kind: "st\"ate"}},
		"state, with seed":     {Job: "j1", State: StateDone, ProgressEvent: scenario.ProgressEvent{Kind: "state", Seed: 3}},
		"no state, no kind":    {Job: "j1"},
	}
	for _, st := range jobStates {
		events["state "+string(st)] = jobEvent{Job: "j000007", State: st, ProgressEvent: scenario.ProgressEvent{Kind: "state"}}
	}
	for name, ev := range events {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := encodeEvent(ev)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// An append wakes a follower that holds the notify channel, and makes
// a new channel only then: appends nobody waits on reuse the one they
// have.
func TestEventBufNotifyOnlyWhenHanded(t *testing.T) {
	b := newEventBuf()
	sweep := jobEvent{Job: "j1", ProgressEvent: scenario.ProgressEvent{Kind: "sweep", SweepDone: 1, SweepTotal: 3}}
	first := b.notify
	b.append(sweep)
	b.append(sweep)
	if b.notify != first {
		t.Fatal("append with no follower replaced the notify channel")
	}
	events, wait, done := b.next(0)
	if len(events) != 2 || done {
		t.Fatalf("next(0) = %d events, done=%v", len(events), done)
	}
	select {
	case <-wait:
		t.Fatal("notify channel closed before any further append")
	default:
	}
	b.append(sweep)
	select {
	case <-wait:
	default:
		t.Fatal("append did not wake the follower")
	}
	if events, _, _ := b.next(2); len(events) != 1 {
		t.Fatalf("follower sees %d new events, want 1", len(events))
	}
	b.finish()
	if _, wait, done := b.next(3); !done {
		t.Fatal("finished stream not reported done")
	} else {
		select {
		case <-wait:
		default:
			t.Fatal("finished stream's notify channel is open")
		}
	}
}
