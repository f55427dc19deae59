package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// The four job kinds of serve_mix. Jobs are 2-30 ms, so admission,
// queueing, event streaming, result encoding, the topology cache and
// per-job world construction are a large share of each.
const (
	kindSmall  = "small"  // karload's net15 20 ms link_cut scenario
	kindGray   = "gray"   // rnp28, gray impairment: per-packet RNG draws, scalar peel-outs
	kindFlap   = "flap"   // fattree:4, dtree, planned protection, exponential flapping
	kindVerify = "verify" // POST /v1/verify: net15 failure sweep, no simnet at all
)

var jobKinds = []string{kindSmall, kindGray, kindFlap, kindVerify}

// jobBlock is the mix: every 20 consecutive jobs hold exactly 12
// small, 3 gray, 3 flap and 2 verify (60/15/15/10 %), in an order the
// seed shuffles — so any two runs carry the same mix however many jobs
// they complete.
var jobBlock = []string{
	kindSmall, kindSmall, kindSmall, kindSmall, kindSmall, kindSmall,
	kindSmall, kindSmall, kindSmall, kindSmall, kindSmall, kindSmall,
	kindGray, kindGray, kindGray,
	kindFlap, kindFlap, kindFlap,
	kindVerify, kindVerify,
}

// jobSeeds is how many distinct per-job seeds the sequence cycles
// through: job i of a run on seed s runs with seed s*jobSeeds + i mod
// jobSeeds, so another run seed means other simulations, not only
// another order of the same ones.
const jobSeeds = 16

const smallSpec = `{
  "name": "karload",
  "topology": "net15",
  "policy": "nip",
  "seed": 1,
  "runs": 1,
  "duration": "20ms",
  "drain": "10ms",
  "flows": [{"src": "AS1", "dst": "AS3", "interval": "1ms"}],
  "phases": [{"name": "steady", "until": "10ms"}, {"name": "tail", "until": "20ms"}],
  "injections": [{"kind": "link_cut", "link": ["SW7", "SW13"], "start": "5ms", "duration": "5ms"}]
}`

const graySpec = `{
  "name": "bench-gray",
  "topology": "rnp28",
  "policy": "nip",
  "protection": "partial",
  "seed": 3,
  "runs": 1,
  "duration": "200ms",
  "drain": "50ms",
  "flows": [{"src": "EDGE-N", "dst": "EDGE-SP", "interval": "1ms", "size": 1500}],
  "phases": [{"name": "pre", "until": "20ms"}, {"name": "gray", "until": "170ms"}, {"name": "post", "until": "200ms"}],
  "injections": [{"kind": "gray", "link": ["SW13", "SW41"], "start": "20ms", "window": "150ms", "drop_prob": 0.3, "corrupt_prob": 0.05}]
}`

const flapSpec = `{
  "name": "bench-flap",
  "topology": "fattree:4",
  "policy": "dtree",
  "protection": "auto",
  "seed": 5,
  "runs": 1,
  "duration": "100ms",
  "drain": "20ms",
  "flows": [{"src": "E0", "dst": "E7", "interval": "500us", "size": 1000}],
  "phases": [{"name": "all", "until": "100ms"}],
  "injections": [{"kind": "exp_flap", "link": ["T0_0", "A0_0"], "start": "10ms", "window": "80ms", "mean_down": "5ms", "mean_up": "5ms"}]
}`

var scenarioSpecs = map[string]string{kindSmall: smallSpec, kindGray: graySpec, kindFlap: flapSpec}

var verifyPolicies = []string{"nip", "dtree"}

const verifyPairs = 100

// jobRequest is the POST path and body of one job.
func jobRequest(kind string, seed int64) (path string, body []byte) {
	collect := false
	if kind == kindVerify {
		body, _ = json.Marshal(serve.VerifyRequest{
			Topology: "net15", Protection: "auto", Policies: verifyPolicies,
			Pairs: verifyPairs, Seed: seed, Workers: 1, Collect: &collect,
		})
		return "/v1/verify", body
	}
	body, _ = json.Marshal(serve.ScenarioRequest{
		Spec: json.RawMessage(scenarioSpecs[kind]), Workers: 1, Seed: &seed, Collect: &collect,
	})
	return "/v1/scenarios", body
}

// jobSequence is the seeded job stream: kinds by shuffled block, seeds
// by index.
type jobSequence struct {
	kinds []string
	base  int64 // first of the run's jobSeeds job seeds
	next  atomic.Int64
}

func newJobSequence(seed int64, blocks int) *jobSequence {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 29))
	js := &jobSequence{kinds: make([]string, 0, blocks*len(jobBlock)), base: seed * jobSeeds}
	for b := 0; b < blocks; b++ {
		block := append([]string(nil), jobBlock...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		js.kinds = append(js.kinds, block...)
	}
	return js
}

func (js *jobSequence) take() (kind string, seed int64) {
	i := js.next.Add(1) - 1
	return js.kinds[int(i)%len(js.kinds)], js.base + i%jobSeeds
}

// reference is what one (kind, seed) job must return, computed by
// running the same spec directly through scenario / resilience — the
// repository's own claim is that the daemon's result is byte-identical
// to the batch path's. hops is the simulated work the job stands for.
type reference struct {
	digest string
	hops   int64
}

func refKey(kind string, seed int64) string { return fmt.Sprintf("%s/%d", kind, seed) }

// encodeResult renders a document the way the daemon and the batch
// CLI both do: two-space indent, trailing newline.
func encodeResult(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// directReferences runs every (kind, seed) input once without the
// daemon. Its spans are the scenario.* and resilience.* layer metrics;
// verifyCases is how many failure cases the sweeps analysed in all.
func directReferences(tr *tracer, base int64) (refs map[string]reference, verifyCases int, err error) {
	refs = make(map[string]reference, len(jobKinds)*jobSeeds)
	ctx := context.Background()
	for _, kind := range jobKinds {
		for seed := base; seed < base+jobSeeds; seed++ {
			root := tr.begin(nil, 0, "bench.direct")
			var doc any
			var hops int64
			if kind == kindVerify {
				g, err := scenario.BuildTopology("net15")
				if err != nil {
					return nil, 0, err
				}
				routes, err := resilience.AllPairRoutes(g)
				if err != nil {
					return nil, 0, err
				}
				s := tr.begin(root, 0, "resilience.sweep")
				rep, err := resilience.SweepContext(ctx, g, routes, resilience.Config{
					Policies: verifyPolicies, AutoProtect: true, ProtectionLabel: "auto",
					Pairs: verifyPairs, PairSeed: seed, Workers: 1, Registry: telemetry.NewRegistry(),
				})
				s.end()
				if err != nil {
					return nil, 0, fmt.Errorf("direct verify seed %d: %w", seed, err)
				}
				doc = rep
				verifyCases += rep.Cases
			} else {
				var spec *scenario.Spec
				var err error
				s := tr.begin(root, 0, "scenario.parse")
				spec, err = scenario.Parse(strings.NewReader(scenarioSpecs[kind]))
				s.end()
				if err != nil {
					return nil, 0, err
				}
				spec.Seed = seed
				coll := telemetry.NewCollector()
				s = tr.begin(root, 0, "scenario.run")
				v, err := scenario.RunContext(ctx, spec, scenario.RunOptions{Workers: 1, Metrics: coll})
				s.end()
				if err != nil {
					return nil, 0, fmt.Errorf("direct %s seed %d: %w", kind, seed, err)
				}
				doc = v
				hops = coll.Registry().SumCounter("kar_net_delivered_total")
				if hops == 0 {
					return nil, 0, fmt.Errorf("direct %s seed %d: no hops delivered", kind, seed)
				}
			}
			root.end()
			data, err := encodeResult(doc)
			if err != nil {
				return nil, 0, err
			}
			refs[refKey(kind, seed)] = reference{digest: hashString(string(data)), hops: hops}
		}
	}
	return refs, verifyCases, nil
}

// daemon is an in-process serve.Server behind a real loopback
// listener.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	base string
	done chan struct{}
}

// startDaemon brings the daemon up, waits for /readyz and runs one
// small job to its result: the interval — start to first result — is
// the workload's set-up time. wrap, when set, interposes on the
// daemon's handler (the traced run).
func startDaemon(wrap func(http.Handler) http.Handler, firstSeed int64) (*daemon, time.Duration, error) {
	t0 := time.Now()
	srv := serve.New(serve.Config{QueueCap: 64, Workers: 2, JobWorkers: 1, StoreCap: 256})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, 0, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	cl := newClient(d.base, 0, nil)
	resp, err := cl.http.Get(d.base + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz: %d", resp.StatusCode)
		}
	}
	if err == nil {
		err = cl.do(kindSmall, firstSeed).err
	}
	ready := time.Since(t0)
	cl.close()
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, ready, nil
}

// stop drains the daemon and waits for its listener goroutine.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx)
	_ = d.srv.Shutdown(ctx)
	<-d.done
}

// client is one closed-loop user: a single keep-alive connection, the
// next job only after the previous one's result has been read.
type client struct {
	base  string
	track int
	tr    *tracer
	http  *http.Client
}

func newClient(base string, track int, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, track: track, tr: tr, http: &http.Client{Transport: t}}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// jobSample is one job's outcome as its client saw it.
type jobSample struct {
	kind    string
	seed    int64
	ms      float64 // POST sent → result read
	rejects int
	digest  string
	err     error
}

// do drives one job through karload's full lifecycle: POST, follow the
// NDJSON event stream to the terminal state, GET the result.
func (c *client) do(kind string, seed int64) jobSample {
	s := jobSample{kind: kind, seed: seed}
	path, body := jobRequest(kind, seed)
	root := c.tr.begin(nil, c.track, "serve.job")
	defer root.end()
	t0 := time.Now()

	sp := c.tr.begin(root, c.track, "serve.submit")
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	var st struct {
		ID string `json:"id"`
	}
	if err == nil {
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case rerr != nil:
			err = rerr
		case resp.StatusCode == http.StatusTooManyRequests:
			// A refused job is a missing job: no retry.
			s.rejects++
			err = fmt.Errorf("submit: 429 queue full")
		case resp.StatusCode != http.StatusAccepted:
			err = fmt.Errorf("submit: %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		default:
			err = json.Unmarshal(data, &st)
		}
	}
	sp.end()
	if err != nil {
		s.err = err
		return s
	}

	sp = c.tr.begin(root, c.track, "serve.follow")
	state, err := c.follow(st.ID)
	sp.end()
	if err == nil && state != "done" {
		err = fmt.Errorf("job %s ended %s", st.ID, state)
	}
	if err != nil {
		s.err = err
		return s
	}

	sp = c.tr.begin(root, c.track, "serve.result")
	resp, err = c.http.Get(c.base + "/v1/jobs/" + st.ID + "/result")
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("result %s: %d", st.ID, resp.StatusCode)
		}
	}
	sp.end()
	s.ms = float64(time.Since(t0)) / 1e6
	if err != nil {
		s.err = err
		return s
	}
	s.digest = hashString(string(data))
	return s
}

func (c *client) follow(id string) (string, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events?format=ndjson")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: %d", id, resp.StatusCode)
	}
	last := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev struct {
			State string `json:"state"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		if ev.State == "done" || ev.State == "failed" || ev.State == "cancelled" {
			last = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if last == "" {
		return "", fmt.Errorf("events %s: stream ended without a terminal state", id)
	}
	return last, nil
}

const serveClients = 2

// segment is one slice of a drive: the jobs the closed loop started in
// it (those in flight at its end complete first), the window the slice
// occupied, and the host's speed read just before and just after.
type segment struct {
	samples []jobSample
	win     *window
	speed   hostSpeed
}

// segmentTime is how long the closed loop runs between two host-speed
// readings (calib.go): short enough that the host's speed holds.
const segmentTime = time.Second

// drive runs the closed loop for d, one segment at a time.
func drive(base string, seq *jobSequence, d time.Duration, tr *tracer) []segment {
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(base, i+1, tr)
		defer clients[i].close()
	}
	var segs []segment
	before := calibrate(calibTime)
	for end := time.Now().Add(d); time.Now().Before(end); {
		out := make([][]jobSample, serveClients)
		var wg sync.WaitGroup
		w := openWindow()
		deadline := time.Now().Add(min(segmentTime, time.Until(end)))
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					kind, seed := seq.take()
					out[i] = append(out[i], c.do(kind, seed))
				}
			}(i, c)
		}
		wg.Wait()
		w.close()
		after := calibrate(calibTime)
		seg := segment{win: w, speed: between(before, after)}
		for _, s := range out {
			seg.samples = append(seg.samples, s...)
		}
		segs = append(segs, seg)
		before = after
	}
	return segs
}

// jobSet is the checked outcome of one drive. Its times are scaled,
// segment by segment, to the reference host speed.
type jobSet struct {
	ok        []jobSample // ms scaled
	attempted int
	failed    int
	errs      []string
	hops      float64
	wallS     float64 // scaled
	cpuS      float64 // scaled
	rawWallS  float64
	rawCPUS   float64
	mallocs   float64
	speeds    []hostSpeed
}

// check holds every job to its reference: done, not refused, and the
// result document the direct run produced for the same (kind, seed).
func check(segs []segment, refs map[string]reference) *jobSet {
	js := &jobSet{}
	for _, seg := range segs {
		js.wallS += seg.win.wall.Seconds() * seg.speed.Wall
		js.cpuS += seg.win.cpu.Seconds() * seg.speed.CPU
		js.rawWallS += seg.win.wall.Seconds()
		js.rawCPUS += seg.win.cpu.Seconds()
		js.mallocs += float64(seg.win.mallocs)
		js.speeds = append(js.speeds, seg.speed)
		for _, s := range seg.samples {
			js.attempted++
			ref := refs[refKey(s.kind, s.seed)]
			if s.err == nil && s.digest != ref.digest {
				s.err = fmt.Errorf("%s seed %d: result digest %s differs from the direct run's %s", s.kind, s.seed, s.digest, ref.digest)
			}
			if s.err != nil {
				js.failed++
				if len(js.errs) < 5 {
					js.errs = append(js.errs, s.err.Error())
				}
				continue
			}
			js.hops += float64(ref.hops)
			s.ms *= seg.speed.Wall
			js.ok = append(js.ok, s)
		}
	}
	return js
}

func (js *jobSet) latencies(kind string) []float64 {
	var v []float64
	for _, s := range js.ok {
		if kind == "" || s.kind == kind {
			v = append(v, s.ms)
		}
	}
	return v
}

func (js *jobSet) jobsPerS() float64 { return ratio(float64(len(js.ok)), js.wallS) }

func (js *jobSet) hostSpeed() hostSpeed {
	var wall, cpu []float64
	for _, s := range js.speeds {
		wall = append(wall, s.Wall)
		cpu = append(cpu, s.CPU)
	}
	return hostSpeed{Wall: median(wall), CPU: median(cpu)}
}

// absorb adds a checked drive's operations to the result.
func (r *result) absorbJobs(js *jobSet) {
	r.Attempted += js.attempted
	r.Failed += js.failed
	r.Errors = append(r.Errors, js.errs...)
}

// serveSetups is how many times a run brings the daemon up; set-up
// time is the median.
const serveSetups = 15

func runServe(opts runOptions) *result {
	res := newResult("serve_mix", opts)
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	seq := newJobSequence(opts.seed, 10_000)
	refs, verifyCases, err := directReferences(tr, seq.base)
	if err != nil {
		res.fail(err)
		return res
	}

	// Set-up, several times over; the last daemon carries the load.
	hw := &handlerWrap{}
	var wrap func(http.Handler) http.Handler
	if opts.trace {
		wrap = hw.wrap
	}
	var d *daemon
	var setups []float64
	speed := calibrate(calibTime)
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.stop()
		}
		var ready time.Duration
		if d, ready, err = startDaemon(wrap, seq.base); err != nil {
			res.fail(fmt.Errorf("daemon start: %w", err))
			return res
		}
		after := calibrate(calibTime)
		setups = append(setups, ready.Seconds()*between(speed, after).Wall)
		speed = after
	}
	defer d.stop()
	hw.srv = d.srv

	warm, measure := 3*time.Second, opts.seconds
	if opts.toy {
		warm = 200 * time.Millisecond
	}
	if opts.trace {
		measure = opts.seconds * 2 / 5
	}
	if ws := check(drive(d.base, seq, warm, nil), refs); ws.failed > 0 {
		res.fail(fmt.Errorf("warm-up: %d of %d jobs failed: %s", ws.failed, ws.attempted, strings.Join(ws.errs, "; ")))
		return res
	}

	plain := check(drive(d.base, seq, measure, nil), refs)
	res.absorbJobs(plain)
	// Every job is held to its reference document, so the run's digest
	// is that of the references, however many of them the loop reached.
	docs := make(map[string]string, len(refs))
	for k, ref := range refs {
		docs[k] = ref.digest
	}
	res.Digest = digestSet(docs)
	if len(plain.ok) == 0 {
		return res
	}
	if !opts.trace {
		lat := plain.latencies("")
		res.put("setup_s", hostTime, setups)
		res.putOne("hops_per_s", hostTime, plain.hops/plain.wallS)
		res.putOne("cpu_ns_per_hop", hostTime, plain.cpuS*1e9/plain.hops)
		res.putOne("allocs_per_khop", counted, plain.mallocs/(plain.hops/1e3))
		res.putOne("peak_rss_mb", hostTime, peakRSSMB())
		res.putOf("jobs_per_s", hostTime, plain.jobsPerS(), len(lat))
		res.put("job_p50_ms", hostTime, lat)
		res.putOf("job_p99_ms", hostTime, percentile(lat, 0.99), len(lat))
		res.putOne("cpu_ms_per_job", hostTime, plain.cpuS*1e3/float64(len(plain.ok)))
		res.HostSpeed = plain.hostSpeed()
		return res
	}
	traceServe(opts, res, tr, hw, d, seq, refs, plain, measure, verifyCases)
	return res
}
