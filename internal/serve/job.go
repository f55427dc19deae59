package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/deflect"
	"repro/internal/resilience"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/topology"
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

// encodeResult renders a verdict or report exactly as the batch CLI's
// -verdict-json / -verify-json flags do (two-space indent, trailing
// newline), so daemon results byte-compare against CLI references.
func encodeResult(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
	if req.Seed != nil {
		spec.Seed = *req.Seed
	}
	if req.Runs > 0 {
		spec.Runs = req.Runs
	}
	if req.Shards > 0 {
		spec.Shards = req.Shards
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
func buildVerifyJob(req *VerifyRequest) (func(ctx context.Context, s *Server, j *Job) ([]byte, error), error) {
	if req.Topology == "" {
		return nil, fmt.Errorf("serve: verify request has no topology")
	}
	g, err := scenario.BuildTopology(req.Topology)
	if err != nil {
		return nil, err
	}
	var routes []resilience.RouteSpec
	if strings.TrimSpace(req.Routes) == "" {
		routes, err = resilience.AllPairRoutes(g)
	} else {
		routes, err = resilience.ParseRoutes(req.Routes)
	}
	if err != nil {
		return nil, err
	}
	// Reject unknown policies at admission (HTTP 400), not at job
	// runtime where the client would have to poll a failed job to see
	// the typo.
	for _, p := range req.Policies {
		if _, ok := deflect.ByName(p); !ok {
			return nil, fmt.Errorf("serve: unknown policy %q (want none, hp, avp, nip or dtree)", p)
		}
	}
	var protection [][2]string
	if req.Protection != "" && req.Protection != "none" && !scenario.AutoProtection(req.Protection) {
		if topology.IsSpec(req.Topology) {
			return nil, fmt.Errorf("serve: generated topologies have no canned %q protection set (use \"auto\")", req.Protection)
		}
		protection, err = scenario.ProtectionPairs(req.Topology, req.Protection)
		if err != nil {
			return nil, err
		}
	}
	collect := req.Collect == nil || *req.Collect
	cfg := *req
	// The report names its protection set; "none" matches the CLI's
	// -verify-protection default so reports byte-compare.
	if cfg.Protection == "" {
		cfg.Protection = "none"
	}
	return func(ctx context.Context, s *Server, j *Job) ([]byte, error) {
		reg := telemetry.NewRegistry()
		rep, err := resilience.SweepContext(ctx, g, routes, resilience.Config{
			Policies:        cfg.Policies,
			Protection:      protection,
			AutoProtect:     scenario.AutoProtection(cfg.Protection),
			ProtectionLabel: cfg.Protection,
			Pairs:           cfg.Pairs,
			PairSeed:        cfg.Seed,
			Workers:         s.jobWorkers(cfg.Workers),
			Registry:        reg,
			Progress: func(done, total int) {
				j.events.append(jobEvent{Job: j.ID, ProgressEvent: scenario.ProgressEvent{
					Kind: "sweep", SweepDone: done, SweepTotal: total,
				}})
			},
		})
		if err != nil {
			return nil, err
		}
		if collect {
			s.coll.Add("job="+j.ID+"/verify/"+rep.Topology, reg, nil)
		}
		return encodeResult(rep)
	}, nil
}
