package serve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/measure"
	"repro/internal/resilience"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// JobKind tags what a job executes.
type JobKind string

const (
	KindScenario JobKind = "scenario"
	KindVerify   JobKind = "verify"
)

// JobState is one vertex of the job state machine:
//
//	queued -> running -> done | failed | cancelled
//	queued -> cancelled                 (cancelled or drained before start)
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

var jobStates = []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// terminal reports whether the state ends the job's lifecycle.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ScenarioRequest is the POST /v1/scenarios body: the scenario engine's
// own request, the value `karsim -scenario` builds from its file and
// flags.
type ScenarioRequest = scenario.Request

// VerifyRequest is the POST /v1/verify body: the verifier's own
// request, the value `karsim -verify` builds from its flag family.
type VerifyRequest = resilience.Request

// jobRun executes a job's request. Its byte result is served verbatim
// from GET /v1/jobs/{id}/result, and is produced by the same encoder
// the batch CLI uses — byte-identical per request.
type jobRun func(ctx context.Context, s *Server, j *Job) ([]byte, error)

// Job is one queued or executed unit of work.
type Job struct {
	ID   string
	Kind JobKind

	run jobRun

	events *eventBuf
	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu       sync.Mutex
	state    JobState
	errMsg   string
	result   []byte
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
}

// JobStatus is the wire form of a job's lifecycle (GET /v1/jobs/{id}).
type JobStatus struct {
	ID         string     `json:"id"`
	Kind       JobKind    `json:"kind"`
	State      JobState   `json:"state"`
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// HasResult reports that GET /v1/jobs/{id}/result will serve a
	// document.
	HasResult bool `json:"has_result"`
}

// status snapshots the job under its lock.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Kind: j.Kind, State: j.state, Error: j.errMsg,
		CreatedAt: j.created, HasResult: len(j.result) > 0,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// emitState appends a state-transition event to the job's stream.
func (j *Job) emitState(st JobState) {
	j.events.append(jobEvent{Job: j.ID, State: st, ProgressEvent: scenario.ProgressEvent{Kind: "state"}})
}

// encodeResult renders a verdict or report as the batch CLI's
// -verdict-json / -verify-json flags do (measure.WriteDocument), so
// daemon results byte-compare against CLI references.
func encodeResult(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := measure.WriteDocument(&buf, v)
	return buf.Bytes(), err
}

// buildScenarioJob resolves the request, holds it to the admission
// limits and returns the job executor.
func buildScenarioJob(req *ScenarioRequest) (jobRun, error) {
	spec, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	pairs := 0
	if spec.Verify != nil {
		pairs = spec.Verify.Pairs
	}
	if err := errors.Join(overLimit("runs", spec.Runs, maxRuns), overLimit("shards", spec.Shards, maxShards),
		overLimit("verify pairs", pairs, maxPairs)); err != nil {
		return nil, err
	}
	collect := req.Collect == nil || *req.Collect
	workers := req.Workers
	return func(ctx context.Context, s *Server, j *Job) ([]byte, error) {
		opts := scenario.RunOptions{
			Workers: s.jobWorkers(workers),
			Job:     j.ID,
			Progress: func(ev scenario.ProgressEvent) {
				j.events.append(jobEvent{Job: j.ID, ProgressEvent: ev})
			},
		}
		if collect {
			opts.Metrics = s.coll
		}
		v, err := scenario.RunContext(ctx, spec, opts)
		if err != nil {
			return nil, err
		}
		return encodeResult(v)
	}, nil
}

// buildVerifyJob resolves the request, holds it to the admission limits
// and returns the job executor. Everything Resolve rejects — unknown
// topology, policy or protection level, a canned level on a generated
// topology — is rejected here, at admission (HTTP 400), not at job
// runtime where the client would have to poll a failed job to see the
// typo.
func buildVerifyJob(req *VerifyRequest) (jobRun, error) {
	if err := overLimit("pairs", req.Pairs, maxPairs); err != nil {
		return nil, err
	}
	g, routes, cfg, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	collect := req.Collect == nil || *req.Collect
	workers := req.Workers
	return func(ctx context.Context, s *Server, j *Job) ([]byte, error) {
		cfg := cfg
		cfg.Workers, cfg.Registry = s.jobWorkers(workers), telemetry.NewRegistry()
		cfg.Progress = func(done, total int) {
			j.events.append(jobEvent{Job: j.ID, ProgressEvent: scenario.ProgressEvent{
				Kind: "sweep", SweepDone: done, SweepTotal: total,
			}})
		}
		rep, err := resilience.SweepContext(ctx, g, routes, cfg)
		if err != nil {
			return nil, err
		}
		if collect {
			s.coll.Add("job="+j.ID+"/verify/"+rep.Topology, cfg.Registry, nil)
		}
		return encodeResult(rep)
	}, nil
}
