package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// simWorkload is one of the three simulator workloads: a sequence of
// identical reps, each a complete simulation (set-up, then the timed
// World.Run / Fig5 call) on inputs derived from the seed alone.
type simWorkload struct {
	name string
	// rep performs one repetition against rc: set-up through the
	// layers' public functions, rc.timed around the measured call,
	// rc.finish with the rep's simulated statistics.
	rep func(rc *repCtx) error
	// shadowSetup: the real set-up happens inside the timed call
	// (experiment.Fig5 builds its own worlds), so the rep's set-up
	// phase is a shadow of it and its mallocs are not the rep's.
	shadowSetup bool
	// sharded: the workload runs on more than one scheduler lane.
	sharded bool
	// drained: the rep runs past the last injection until the
	// network is empty, so conservation must hold with equality.
	drained bool
	// kernelInputs describes the workload to the ledger kernels.
	kernelInputs func(seed int64, toy bool) (kernelInputs, error)
}

// Rep variants a traced run adds on top of the plain and probed reps.
const (
	variantPlain    = ""
	variantSerial   = "serial"   // shards=1
	variantRecorder = "recorder" // flight recorder attached, sample rate 0
)

// repCtx is what the harness hands a rep and what the rep hands back.
type repCtx struct {
	seed    int64
	toy     bool
	tr      *tracer
	root    *openSpan
	probe   bool
	variant string

	t0       time.Time
	cpu0     time.Duration
	mall0    uint64
	setup    time.Duration
	setupCPU time.Duration
	run      *window
	repMall  uint64
	// Host speed before set-up, between set-up and run, after the run.
	speedA, speedB, speedC hostSpeed

	counts  simCounts
	probes  probeTotals
	series  int
	virtual map[string]float64 // workload statistics for the layer table
}

func (rc *repCtx) call(name string, fn func()) { rc.tr.call(rc.root, name, fn) }

// calibTime is how long each host-speed reading takes.
const calibTime = 30 * time.Millisecond

// timed closes the set-up phase, collects garbage so the window starts
// from a settled heap, and measures fn between two host-speed readings.
func (rc *repCtx) timed(fn func()) {
	rc.setup = time.Since(rc.t0)
	rc.setupCPU = cpuTime() - rc.cpu0
	runtime.GC()
	rc.speedB = calibrate(calibTime)
	rc.run = openWindow()
	fn()
	rc.run.close()
	rc.speedC = calibrate(calibTime)
	rc.repMall = rc.run.mall0 + rc.run.mallocs - rc.mall0
}

// finish records the rep's simulated statistics. In a traced rep it
// also renders the registry's Prometheus exposition (outside the timed
// window, as karsim -metrics does) and reads the handler probes.
func (rc *repCtx) finish(reg *telemetry.Registry, counts simCounts, w *world) {
	rc.counts = counts
	if rc.tr != nil {
		var lc lineCounter
		s := rc.tr.begin(rc.root, 0, "telemetry.write_prometheus")
		_ = reg.WritePrometheus(&lc) // lineCounter.Write cannot fail
		s.end()
		rc.series = lc.samples
	}
	if w != nil {
		rc.probes = w.probeTotals()
	}
}

// lineCounter counts exposition sample lines (not # HELP / # TYPE).
type lineCounter struct {
	samples int
	midLine bool
}

func (lc *lineCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if !lc.midLine && b != '#' && b != '\n' {
			lc.samples++
		}
		lc.midLine = b != '\n'
	}
	return len(p), nil
}

// repResult is one measured rep. Its times are scaled to the reference
// host speed (calib.go); speed is the host's speed during the run.
type repResult struct {
	setupS     float64
	runS       float64
	runCPUns   float64
	repCPUms   float64
	speed      hostSpeed
	hops       float64
	repMallocs float64
	runMallocs float64
	digest     string
	rc         *repCtx
	err        error
}

func (wl *simWorkload) runRep(seed int64, toy bool, tr *tracer, repIndex int, probe bool, variant string) repResult {
	rc := &repCtx{seed: seed, toy: toy, tr: tr, probe: probe, variant: variant, virtual: make(map[string]float64)}
	tr.setRep(repIndex)
	rc.root = tr.begin(nil, 0, "bench.rep")
	rc.speedA = calibrate(calibTime)
	rc.mall0 = mallocs()
	rc.cpu0 = cpuTime()
	rc.t0 = time.Now()
	err := wl.rep(rc)
	rc.root.end()
	if err == nil && rc.run == nil {
		err = fmt.Errorf("%s: rep never entered its timed window", wl.name)
	}
	if err != nil {
		return repResult{err: err, rc: rc}
	}
	if err := rc.counts.conserved(wl.drained); err != nil {
		return repResult{err: err, rc: rc}
	}
	setupSpeed, runSpeed := between(rc.speedA, rc.speedB), between(rc.speedB, rc.speedC)
	r := repResult{
		setupS:     rc.setup.Seconds() * setupSpeed.Wall,
		runS:       rc.run.wall.Seconds() * runSpeed.Wall,
		runCPUns:   float64(rc.run.cpu) * runSpeed.CPU,
		repCPUms:   (float64(rc.setupCPU)*setupSpeed.CPU + float64(rc.run.cpu)*runSpeed.CPU) / 1e6,
		speed:      runSpeed,
		hops:       float64(rc.counts.delivered),
		repMallocs: float64(rc.repMall),
		runMallocs: float64(rc.run.mallocs),
		digest:     rc.counts.digest(),
		rc:         rc,
	}
	if wl.shadowSetup {
		r.repMallocs = r.runMallocs
	}
	return r
}

// repSet accumulates the reps of one phase of a run and checks that
// every rep reproduces the first one's digest.
type repSet struct {
	reps      []repResult
	attempted int
	failed    int
	digest    string
	errs      []string
}

func (rs *repSet) add(r repResult) {
	rs.attempted++
	if r.err == nil && rs.digest == "" {
		rs.digest = r.digest
	}
	if r.err == nil && r.digest != rs.digest {
		r.err = fmt.Errorf("sim_digest %s differs from the first rep's %s", r.digest, rs.digest)
	}
	if r.err != nil {
		rs.failed++
		if len(rs.errs) < 5 {
			rs.errs = append(rs.errs, r.err.Error())
		}
		return
	}
	rs.reps = append(rs.reps, r)
}

func (rs *repSet) column(f func(repResult) float64) []float64 {
	out := make([]float64, len(rs.reps))
	for i, r := range rs.reps {
		out[i] = f(r)
	}
	return out
}

func (rs *repSet) hopsPerS() []float64 {
	return rs.column(func(r repResult) float64 { return r.hops / r.runS })
}

// loop runs reps of one kind until d has elapsed, at least minReps.
func (wl *simWorkload) loop(rs *repSet, d time.Duration, minReps int, seed int64, toy bool, tr *tracer, probe bool) {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < d; i++ {
		rs.add(wl.runRep(seed, toy, tr, rs.attempted+1, probe, variantPlain))
	}
}

// endToEnd turns a set of plain reps into the end-to-end metrics. A
// job, for a simulator workload, is one rep: the complete simulation a
// user asks for, set-up plus run.
func (rs *repSet) endToEnd(res *result) {
	jobMS := rs.column(func(r repResult) float64 { return (r.setupS + r.runS) * 1e3 })
	var total float64
	for _, ms := range jobMS {
		total += ms
	}
	res.put("setup_s", hostTime, rs.column(func(r repResult) float64 { return r.setupS }))
	res.put("hops_per_s", hostTime, rs.hopsPerS())
	res.put("cpu_ns_per_hop", hostTime, rs.column(func(r repResult) float64 { return r.runCPUns / r.hops }))
	res.put("allocs_per_khop", counted, rs.column(func(r repResult) float64 { return r.repMallocs / (r.hops / 1e3) }))
	res.putOne("peak_rss_mb", hostTime, peakRSSMB())
	res.putOf("jobs_per_s", hostTime, ratio(float64(len(jobMS)), total/1e3), len(jobMS))
	res.put("job_p50_ms", hostTime, jobMS)
	res.putOf("job_p99_ms", hostTime, percentile(jobMS, 0.99), len(jobMS))
	res.put("cpu_ms_per_job", hostTime, rs.column(func(r repResult) float64 { return r.repCPUms }))
	res.HostSpeed = rs.hostSpeed()
}

// hostSpeed is the median host speed over the reps' timed windows, as
// a share of the reference speed.
func (rs *repSet) hostSpeed() hostSpeed {
	return hostSpeed{
		Wall: median(rs.column(func(r repResult) float64 { return r.speed.Wall })),
		CPU:  median(rs.column(func(r repResult) float64 { return r.speed.CPU })),
	}
}

// runSim is a whole run of a simulator workload: a discarded warm-up
// rep, then plain reps for the measuring time; a traced run splits
// that time between plain and probed reps and adds the ledger.
func runSim(wl *simWorkload, opts runOptions) *result {
	res := newResult(wl.name, opts)
	if warm := wl.runRep(opts.seed, opts.toy, nil, 0, false, variantPlain); warm.err != nil {
		res.fail(fmt.Errorf("warm-up rep: %w", warm.err))
		return res
	}
	minReps := 3
	measure := opts.seconds
	if opts.trace {
		measure = opts.seconds * 2 / 5
	}
	plain := &repSet{}
	wl.loop(plain, measure, minReps, opts.seed, opts.toy, nil, false)
	res.absorb(plain)
	if len(plain.reps) == 0 {
		return res
	}
	res.Digest = plain.digest
	if !opts.trace {
		plain.endToEnd(res)
		return res
	}
	traceSim(wl, opts, res, plain, measure)
	return res
}
