// Package serve turns the batch simulator into a long-running
// scenario/verify service: an HTTP/JSON daemon with a bounded job
// queue, a fixed executor pool, streamed per-job progress and a live
// Prometheus exposition.
//
// The service plane never touches results: a job's verdict or report
// is produced by the same scenario/resilience engines the CLI drives,
// under the same seeds, and encoded by the same JSON encoder — one
// spec, one seed, one answer, whether it ran here or in a batch
// process. What the daemon adds is admission control (queue bound with
// explicit 429 backpressure), cancellation (DELETE, client disconnect,
// SIGTERM drain — all context.Context down the same plumbing) and
// observability (SSE/NDJSON progress streams, kar_serve_* metrics).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/measure"
	"repro/internal/telemetry"
)

// Config sizes the daemon. The zero value is usable: every field has
// a default.
type Config struct {
	// QueueCap bounds the admission queue (default 64). A submission
	// that finds the queue full is rejected with 429 + Retry-After.
	QueueCap int
	// Workers is the executor pool size — how many jobs run
	// concurrently (default 2). Each job additionally parallelizes
	// internally per its own workers setting.
	Workers int
	// JobWorkers is the default per-job run/sweep parallelism when a
	// request does not set one (default 4).
	JobWorkers int
	// StoreCap bounds retained terminal jobs (default 1024): beyond
	// it, the oldest finished job — result, events and status — is
	// dropped, keeping daemon memory flat under sustained load.
	StoreCap int
	// Version is reported in kar_serve_build_info.
	Version string
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueCap <= 0 {
		out.QueueCap = 64
	}
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.JobWorkers <= 0 {
		out.JobWorkers = 4
	}
	if out.StoreCap <= 0 {
		out.StoreCap = 1024
	}
	if out.Version == "" {
		out.Version = "dev"
	}
	return out
}

// Server is the daemon: HTTP handler, job queue and executor pool.
// Create with New, serve s.Handler(), stop with Shutdown.
type Server struct {
	cfg     Config
	reg     *telemetry.Registry
	coll    *telemetry.Collector
	metrics *serveMetrics
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	// execHook, when set (tests), replaces every job's executor.
	execHook func(ctx context.Context, j *Job) ([]byte, error)

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	order    []string
	nextID   int
}

// New builds a server and starts its executor pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        telemetry.NewRegistry(),
		coll:       telemetry.NewCollector(),
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.QueueCap),
		jobs:       make(map[string]*Job),
	}
	s.metrics = newServeMetrics(s.reg, cfg.Version)
	s.metrics.queueCap.Set(float64(cfg.QueueCap))

	s.mux.HandleFunc("POST /v1/scenarios", s.handleSubmitScenario)
	s.mux.HandleFunc("POST /v1/verify", s.handleSubmitVerify)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the daemon's own kar_serve_* registry (tests).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Shutdown drains the daemon: no new submissions (503), queued jobs
// are cancelled, in-flight jobs run to completion within ctx's
// deadline and are context-cancelled past it. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: cancel running jobs; they stop at their next
		// phase/case boundary and the pool drains.
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	s.baseCancel()
	return err
}

// jobWorkers resolves a request's per-job parallelism.
func (s *Server) jobWorkers(requested int) int {
	if requested > 0 {
		return requested
	}
	return s.cfg.JobWorkers
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// --- submission ---

var (
	errQueueFull = errors.New("serve: job queue full")
	errDraining  = errors.New("serve: draining, not accepting jobs")
)

// enqueue registers and queues a freshly built job.
func (s *Server) enqueue(kind JobKind, run func(context.Context, *Server, *Job) ([]byte, error)) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	j := &Job{
		Kind:    kind,
		run:     run,
		events:  newEventBuf(),
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
	j.ID = fmt.Sprintf("j%06d", s.nextID)
	select {
	case s.queue <- j:
	default:
		s.metrics.rejected.Inc()
		return nil, errQueueFull
	}
	s.nextID++
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.metrics.admitted(kind)
	s.metrics.queueDepth.Set(float64(len(s.queue)))
	s.evictLocked()
	j.emitState(StateQueued)
	return j, nil
}

// evictLocked retires the oldest terminal jobs beyond StoreCap.
// Queued and running jobs are never evicted, so a cap smaller than the
// in-flight set degrades to retaining exactly the live jobs.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.cfg.StoreCap {
		victim := ""
		for i, id := range s.order {
			j := s.jobs[id]
			if j == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
			j.mu.Lock()
			term := j.state.terminal()
			j.mu.Unlock()
			if term {
				victim = id
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		if victim == "" {
			return
		}
		j := s.jobs[victim]
		delete(s.jobs, victim)
		j.mu.Lock()
		s.metrics.evicted(j.state)
		j.mu.Unlock()
	}
}

func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// --- execution ---

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.metrics.queueDepth.Set(float64(len(s.queue)))
		draining := s.draining
		s.mu.Unlock()
		if draining {
			// Drain: queued jobs are cancelled, not executed.
			s.finishJob(j, nil, context.Canceled)
			continue
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while queued (DELETE closed it out already).
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	s.metrics.transition(StateQueued, StateRunning)
	j.emitState(StateRunning)

	exec := func(ctx context.Context) ([]byte, error) { return j.run(ctx, s, j) }
	if s.execHook != nil {
		exec = func(ctx context.Context) ([]byte, error) { return s.execHook(ctx, j) }
	}
	start := time.Now()
	result, err := recovered(ctx, exec)
	s.metrics.latency.Observe(time.Since(start).Seconds())
	s.finishJob(j, result, err)
}

// recovered runs a job's executor and turns a panic into the job's
// error: a request that trips a bug costs that job (state failed, the
// panic value in its status, the stack on the daemon's stderr), never
// the daemon.
func recovered(ctx context.Context, exec func(context.Context) ([]byte, error)) (result []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "serve: job panicked: %v\n%s", p, debug.Stack())
			result, err = nil, fmt.Errorf("serve: job panicked: %v", p)
		}
	}()
	return exec(ctx)
}

// finishJob moves a job to its terminal state, publishes the final
// event and wakes every waiter.
func (s *Server) finishJob(j *Job, result []byte, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	from := j.state
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.cancel = nil
	to := j.state
	j.mu.Unlock()

	s.metrics.transition(from, to)
	j.emitState(to)
	j.events.finish()
	close(j.done)
}

// --- HTTP handlers ---

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	measure.WriteDocument(w, v)
}

// submit runs the shared admission path and replies: 202 + status
// (default), or — with ?wait=1 — blocks until the job finishes and
// replies 200 with the final status. A waiting client that disconnects
// cancels its job.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind JobKind, run func(context.Context, *Server, *Job) ([]byte, error)) {
	j, err := s.enqueue(kind, run)
	switch {
	case errors.Is(err, errDraining):
		httpError(w, http.StatusServiceUnavailable, "draining, not accepting jobs")
		return
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "job queue full (capacity %d)", s.cfg.QueueCap)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
			writeJSON(w, http.StatusOK, j.status())
		case <-r.Context().Done():
			s.cancelJob(j)
			httpError(w, http.StatusRequestTimeout, "client went away; job %s cancelled", j.ID)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// Admission limits: what one request may ask of the daemon. A request
// past any of them is refused with a 400 naming the limit before
// anything is sized from it — runs sizes the verdict's result slice,
// shards the worker crew and the lane set, pairs the sweep's failure
// list. Constants, not settings: they bound a single job, the queue
// bounds how many.
const (
	maxRuns         = 10_000
	maxShards       = 256
	maxPairs        = 100_000
	maxRequestBytes = 1 << 20
)

// overLimit is the refusal for a request field past its limit.
func overLimit(field string, v, limit int) error {
	if v <= limit {
		return nil
	}
	return fmt.Errorf("serve: %s %d exceeds the limit of %d", field, v, limit)
}

// decodeRequest reads a submission body — at most maxRequestBytes,
// unknown fields refused — into req, replying 400 itself on failure.
func decodeRequest(w http.ResponseWriter, r *http.Request, what string, req any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusBadRequest, "request body exceeds the limit of %d bytes", maxRequestBytes)
	} else {
		httpError(w, http.StatusBadRequest, "bad %s request: %v", what, err)
	}
	return false
}

func (s *Server) handleSubmitScenario(w http.ResponseWriter, r *http.Request) {
	var req ScenarioRequest
	if !decodeRequest(w, r, "scenario", &req) {
		return
	}
	run, err := buildScenarioJob(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.submit(w, r, KindScenario, run)
}

func (s *Server) handleSubmitVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !decodeRequest(w, r, "verify", &req) {
		return
	}
	run, err := buildVerifyJob(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.submit(w, r, KindVerify, run)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobResult serves the job's result document verbatim — the
// exact bytes the batch CLI would have written, for byte-compare
// gates and result archiving.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	state, result := j.state, j.result
	j.mu.Unlock()
	if !state.terminal() {
		httpError(w, http.StatusConflict, "job %s is %s; result not ready", j.ID, state)
		return
	}
	if len(result) == 0 {
		httpError(w, http.StatusNotFound, "job %s finished %s with no result", j.ID, state)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(result)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusAccepted, j.status())
}

// cancelJob cancels a job in any non-terminal state: queued jobs are
// closed out immediately, running jobs get their context cancelled and
// finish at the engine's next boundary. Terminal jobs are untouched.
func (s *Server) cancelJob(j *Job) {
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		j.mu.Unlock()
		s.finishJob(j, nil, context.Canceled)
		return
	case j.state == StateRunning && j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return
	}
	j.mu.Unlock()
}

// handleJobEvents streams the job's progress as SSE (default) or
// NDJSON (?format=ndjson or Accept: application/x-ndjson). The stream
// replays history from the start, follows live, and ends — after the
// terminal state event — with an SSE "done" event / the NDJSON
// terminal state line.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	ndjson := r.URL.Query().Get("format") == "ndjson" ||
		strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	idx := 0
	for {
		events, wait, done := j.events.next(idx)
		for _, ev := range events {
			if ndjson {
				w.Write(ev)
				w.Write([]byte("\n"))
			} else {
				fmt.Fprintf(w, "data: %s\n\n", ev)
			}
		}
		idx += len(events)
		if fl != nil {
			fl.Flush()
		}
		if done {
			if !ndjson {
				final, _ := json.Marshal(j.status())
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", final)
				if fl != nil {
					fl.Flush()
				}
			}
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics exposes the daemon registry and the collected per-job
// simulation telemetry in one Prometheus text page. The two registries
// hold disjoint families (kar_serve_* vs the simulation's kar_*), so
// concatenation is a valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
	s.coll.Registry().WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports admission readiness: 503 once draining starts,
// so load balancers stop routing submissions during shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}
