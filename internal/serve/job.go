package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// ScenarioRequest is the POST /v1/scenarios body: a full scenario spec
// (the same JSON the batch CLI loads from a file) plus execution
// overrides. Overrides that change results (seed, runs, shards) edit
// the spec before validation; the rest only tune execution.
type ScenarioRequest struct {
	// Spec is the scenario document, verbatim internal/scenario JSON.
	Spec json.RawMessage `json:"spec"`
	// Workers overrides the per-job run parallelism (default: the
	// daemon's job_workers setting). Never changes results.
	Workers int `json:"workers,omitempty"`
	// Seed/Runs/Shards, when set, override the spec's own values.
	Seed   *int64 `json:"seed,omitempty"`
	Runs   int    `json:"runs,omitempty"`
	Shards int    `json:"shards,omitempty"`
	// Collect retains the job's full simulation telemetry in the live
	// /metrics exposition (default true). Load generators turn it off
	// so hundreds of jobs do not accrete registries.
	Collect *bool `json:"collect,omitempty"`
}

// VerifyRequest is the POST /v1/verify body, mirroring the batch CLI's
// -verify flag family.
type VerifyRequest struct {
	// Topology is a canned name (net15, rnp28, ...) or a generator
	// spec ("fattree:8", "isp:200:2:40:7", ...).
	Topology string `json:"topology"`
	// Routes is "src:dst[,src:dst...]"; empty sweeps every ordered
	// edge pair.
	Routes string `json:"routes,omitempty"`
	// Policies to score (default: none, hp, avp, nip).
	Policies []string `json:"policies,omitempty"`
	// Protection names a canned driven-deflection set ("none",
	// "partial", "full") or "auto" for controller-planned
	// per-destination trees; generated topologies support only "none"
	// and "auto".
	Protection string `json:"protection,omitempty"`
	// Pairs samples this many two-link failures on top of the
	// exhaustive single-failure sweep; Seed pins the sample.
	Pairs int   `json:"pairs,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
	// Workers bounds the sweep's case-analysis pool.
	Workers int `json:"workers,omitempty"`
	// Collect retains the sweep's kar_verify_* counters on /metrics
	// (default true).
	Collect *bool `json:"collect,omitempty"`
}

// Job is one queued or executed unit of work.
type Job struct {
	ID   string
	Kind JobKind

	// run executes the job's request. Its byte result is served
	// verbatim from GET /v1/jobs/{id}/result, and is produced by the
	// same encoder the batch CLI uses — byte-identical per seed.
	run func(ctx context.Context, s *Server, j *Job) ([]byte, error)

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

// buildScenarioJob validates the request and returns the job executor.
func buildScenarioJob(req *ScenarioRequest) (func(ctx context.Context, s *Server, j *Job) ([]byte, error), error) {
	if len(req.Spec) == 0 {
		return nil, fmt.Errorf("serve: scenario request has no spec")
	}
	spec, err := scenario.Parse(bytes.NewReader(req.Spec))
	if err != nil {
		return nil, err
	}
	spec.Override(req.Seed, req.Runs, req.Shards)
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
			Workers:        s.jobWorkers(workers),
			MetricPrefix:   "job=" + j.ID + "/",
			ExtraRunLabels: []string{"job", j.ID},
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

// buildVerifyJob validates the request and returns the job executor.
// Everything resilience.Plan rejects — unknown topology, policy or
// protection level, a canned level on a generated topology — is
// rejected here, at admission (HTTP 400), not at job runtime where the
// client would have to poll a failed job to see the typo.
func buildVerifyJob(req *VerifyRequest) (func(ctx context.Context, s *Server, j *Job) ([]byte, error), error) {
	if req.Topology == "" {
		return nil, fmt.Errorf("serve: verify request has no topology")
	}
	if err := overLimit("pairs", req.Pairs, maxPairs); err != nil {
		return nil, err
	}
	g, routes, cfg, err := resilience.Plan(req.Topology, req.Routes, req.Policies, req.Protection)
	if err != nil {
		return nil, err
	}
	cfg.Pairs, cfg.PairSeed = req.Pairs, req.Seed
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
