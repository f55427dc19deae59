package main

import (
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// kernelTarget is how long each ledger kernel is timed for.
func kernelTarget(toy bool) time.Duration {
	if toy {
		return 2 * time.Millisecond
	}
	return 200 * time.Millisecond
}

// traceSim is the traced half of a simulator workload's run: probed
// reps under spans and handler interposition, one rep per extra
// variant, then the ledger kernels. plain holds the untraced reps the
// same run measured first, which the tracing overhead is read against.
func traceSim(wl *simWorkload, opts runOptions, res *result, plain *repSet, measure time.Duration) {
	tr := newTracer()
	probed := &repSet{digest: plain.digest}
	wl.loop(probed, measure, 2, opts.seed, opts.toy, tr, true)
	res.absorb(probed)
	if len(probed.reps) == 0 {
		return
	}
	st := tr.selfTimes()
	med := func(f func(repResult) float64) float64 { return median(probed.column(f)) }
	plainHops := median(plain.hopsPerS())
	res.HostSpeed = probed.hostSpeed()
	ws := res.HostSpeed.Wall // span times are scaled by the run's median host speed

	// Stage spans.
	for _, name := range []string{
		"topology.build", "simnet.new", "controller.new", "kswitch.install_all", "edge.new",
		"udpsim.new_flowset", "simnet.run_until", "udpsim.stats", "telemetry.write_prometheus",
	} {
		res.putOne(name+"_ms", hostTime, perRepMS(st, name)*ws)
	}
	res.putOne("controller.install_route_us", hostTime, perCallUS(st, "controller.install_route")*ws)
	res.putOne("controller.routes", counted, callsPerRep(st, "controller.install_route"))
	res.putOne("edge.install_route_us", hostTime, perCallUS(st, "edge.install_route")*ws)
	res.putOne("experiment.fig5_cell_ms", hostTime, perCallUS(st, "experiment.fig5_cell")/1e3*ws)
	res.putOne("telemetry.series", counted, med(func(r repResult) float64 { return float64(r.rc.series) }))

	// Handler interposition and the registries' own counts. The
	// counts are simulated statistics: identical in every rep.
	c := probed.reps[0].rc.counts
	hops := float64(c.delivered)
	pt := probed.reps[0].rc.probes
	probedWorld := pt.switchCalls+pt.edgeCalls > 0
	switchCalls := float64(c.switchReceived)
	if probedWorld {
		switchCalls = float64(pt.switchCalls)
		res.put("kswitch.handle_ns", hostTime, probed.column(func(r repResult) float64 {
			return ratio(r.rc.probes.switchNS, float64(r.rc.probes.switchCalls)) * r.speed.CPU
		}))
		res.put("edge.handle_ns", hostTime, probed.column(func(r repResult) float64 {
			return ratio(r.rc.probes.edgeNS, float64(r.rc.probes.edgeCalls)) * r.speed.CPU
		}))
		res.putOne("kswitch.batch_share", virtualTime, ratio(float64(pt.switchBatched), float64(pt.switchCalls)))
		res.put("simnet.run_self_ns_per_hop", hostTime, probed.column(func(r repResult) float64 {
			return (r.runCPUns - (r.rc.probes.switchNS+r.rc.probes.edgeNS)*r.speed.CPU) / r.hops
		}))
	}
	res.putOne("kswitch.handle_calls", virtualTime, switchCalls)
	res.putOne("edge.handle_calls", virtualTime, hops-switchCalls)
	res.putOne("simnet.hops", virtualTime, hops)
	res.putOne("simnet.sends", virtualTime, float64(c.sends))
	res.putOne("simnet.queue_drops", virtualTime, float64(c.queueDrops()))
	res.putOne("kswitch.deflect_share", virtualTime, ratio(float64(c.deflections), float64(c.forwards)))
	res.putOne("edge.reencodes", virtualTime, float64(c.edgeReencodes))
	res.putOne("tcpsim.retransmits", virtualTime, float64(c.tcpRetransmits))
	for _, name := range []string{"tcpsim.goodput_mbps", "udpsim.delivery_ratio", "udpsim.mean_hops"} {
		res.putOne(name, virtualTime, probed.reps[0].rc.virtual[name])
	}
	res.put("simnet.run_allocs_per_khop", counted, plain.column(func(r repResult) float64 { return r.runMallocs / (r.hops / 1e3) }))
	res.put("simnet.cpu_per_wall", hostTime, plain.column(func(r repResult) float64 { return r.runCPUns / 1e9 / r.runS }))
	res.putOne("trace_overhead_pct", hostTime, (ratio(plainHops, median(probed.hopsPerS()))-1)*100)

	// One rep per extra variant.
	res.putOne("simnet.serial_hops_per_s", hostTime, plainHops)
	if wl.sharded {
		serial := &repSet{digest: plain.digest}
		serial.add(wl.runRep(opts.seed, opts.toy, nil, 0, false, variantSerial))
		res.absorb(serial)
		if len(serial.reps) == 1 {
			res.putOne("simnet.serial_hops_per_s", hostTime, serial.hopsPerS()[0])
		}
	}
	// One rep of a second or more; as many as fit in two seconds of the
	// half-second ones, whose single readings scatter too much.
	rec := &repSet{digest: plain.digest}
	for start := time.Now(); len(rec.reps) == rec.attempted && (rec.attempted == 0 || time.Since(start) < 2*time.Second); {
		rec.add(wl.runRep(opts.seed, opts.toy, nil, 0, false, variantRecorder))
	}
	res.absorb(rec)
	if len(rec.reps) > 0 {
		res.putOne("trace.recorder_overhead_pct", hostTime, (ratio(plainHops, median(rec.hopsPerS()))-1)*100)
	}

	// Ledger kernels on the workload's inputs, and their account of
	// the end-to-end CPU cost per hop.
	in, err := wl.kernelInputs(opts.seed, opts.toy)
	if err == nil {
		var ns map[string]float64
		if ns, err = runLedger(in, kernelTarget(opts.toy), res); err == nil {
			batch := ratio(float64(pt.switchBatched), float64(pt.switchCalls))
			if !probedWorld {
				// No interposition inside experiment.Fig5: take every
				// on-path forward as batched, every deflection as a
				// scalar peel-out.
				batch = 1 - ratio(float64(c.deflections), float64(c.forwards))
			}
			sum := ledgerSum(ns, c, switchCalls, batch)
			e2e := median(plain.column(func(r repResult) float64 { return r.runCPUns / r.hops }))
			res.putOne("ledger.sum_ns_per_hop", hostTime, sum)
			res.putOne("ledger.unattributed_ns_per_hop", hostTime, e2e-sum)
		}
	}
	if err != nil {
		res.fail(err)
	}

	res.TraceFile = filepath.Join(opts.outDir, wl.name+".trace.json")
	if err := tr.write(res.TraceFile); err != nil {
		res.fail(err)
	}
}

// ledgerSum is Σ count-per-hop × kernel over the kernels that do not
// overlap: the link/train/scheduler crossing, the residue reduction
// and the deflection decision at switches, the edge's injection and
// re-encode, and packet generation. Transport (tcpsim), telemetry
// folds and the harness are not in it; they are what the unattributed
// remainder holds.
func ledgerSum(ns map[string]float64, c simCounts, switchCalls, batch float64) float64 {
	hops := float64(c.delivered)
	sw := switchCalls / hops
	deflect := ratio(float64(c.deflections), float64(c.forwards))
	link := batch*ns["simnet.link_hop_ns"] + (1-batch)*ns["simnet.link_hop_scalar_ns"]
	reduce := sw * (batch*ns["rns.reduce_batch_ns_per_pkt"] + (1-batch)*ns["rns.reduce_ns"])
	decide := sw * ((1-deflect)*ns["deflect.nip_onpath_ns"] + deflect*ns["deflect.nip_deflect_ns"])
	inject := float64(c.encaps) / hops * ns["edge.inject_ns"]
	generate := float64(c.extra["flowset_sent"]) / hops * ns["udpsim.flowset_ns_per_pkt"]
	reencode := float64(c.edgeReencodes) / hops * ns["controller.reencode_us"]
	return link + reduce + decide + inject + generate + reencode
}

// handlerWrap interposes on the daemon's HTTP handler during the
// traced window: time per route class, and the deepest queue a
// submission found.
type handlerWrap struct {
	on  atomic.Bool
	srv *serve.Server

	mu       sync.Mutex
	ns       [3]int64
	calls    [3]int64
	depthMax float64
}

const (
	classSubmit = iota
	classEvents
	classResult
	classOther
)

func classify(r *http.Request) int {
	switch {
	case r.Method == http.MethodPost:
		return classSubmit
	case strings.HasSuffix(r.URL.Path, "/events"):
		return classEvents
	case strings.HasSuffix(r.URL.Path, "/result"):
		return classResult
	}
	return classOther
}

func (hw *handlerWrap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := classify(r)
		if !hw.on.Load() || class == classOther {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		hw.mu.Lock()
		hw.ns[class] += int64(d)
		hw.calls[class]++
		if class == classSubmit {
			if depth := hw.srv.Registry().Gauge("kar_serve_queue_depth").Value(); depth > hw.depthMax {
				hw.depthMax = depth
			}
		}
		hw.mu.Unlock()
	})
}

func (hw *handlerWrap) meanUS(class int) float64 {
	hw.mu.Lock()
	defer hw.mu.Unlock()
	return ratio(float64(hw.ns[class])/1e3, float64(hw.calls[class]))
}

// traceServe is the traced half of serve_mix: a second closed-loop
// window with client spans and the handler wrapper on, the daemon's
// own registry, and the ledger kernels on the small job's inputs.
func traceServe(opts runOptions, res *result, tr *tracer, hw *handlerWrap, d *daemon, seq *jobSequence,
	refs map[string]reference, plain *jobSet, measure time.Duration, verifyCases int) {
	reg := d.srv.Registry()
	exec := reg.Histogram("kar_serve_job_seconds", nil)
	execSum0, execN0 := exec.Sum(), exec.Count()
	hw.on.Store(true)
	traced := check(drive(d.base, seq, measure, tr), refs)
	hw.on.Store(false)
	res.absorbJobs(traced)
	if len(traced.ok) == 0 {
		return
	}
	st := tr.selfTimes()
	res.HostSpeed = traced.hostSpeed()
	ws := res.HostSpeed.Wall // span and handler times are scaled by the window's median host speed
	perCallMS := func(name string) float64 { return perCallUS(st, name) / 1e3 * ws }

	res.putOne("serve.submit_ms", hostTime, perCallMS("serve.submit"))
	res.putOne("serve.follow_ms", hostTime, perCallMS("serve.follow"))
	res.putOne("serve.result_ms", hostTime, perCallMS("serve.result"))
	res.putOne("serve.handler_submit_us", hostTime, hw.meanUS(classSubmit)*ws)
	res.putOne("serve.handler_events_us", hostTime, hw.meanUS(classEvents)*ws)
	res.putOne("serve.handler_result_us", hostTime, hw.meanUS(classResult)*ws)
	// The daemon's histogram has 1/5/10 ms buckets, too coarse for a
	// median of 2 ms jobs; its sum and count give the mean exactly.
	execMean := ratio((exec.Sum()-execSum0)*1e3, float64(exec.Count()-execN0)) * ws
	res.putOne("serve.exec_mean_ms", hostTime, execMean)
	res.putOne("serve.overhead_ms", hostTime, mean(traced.latencies(""))-execMean)
	res.putOne("serve.rejected_429", counted, float64(reg.CounterValue("kar_serve_rejected_total")))
	res.putOne("serve.queue_depth_max", counted, hw.depthMax)
	for _, kind := range jobKinds {
		res.put("serve."+kind+"_p50_ms", hostTime, traced.latencies(kind))
	}
	res.putOne("scenario.parse_us", hostTime, perCallUS(st, "scenario.parse")*ws)
	res.putOne("scenario.run_ms", hostTime, perCallMS("scenario.run"))
	res.putOne("resilience.sweep_ms", hostTime, perCallMS("resilience.sweep"))
	var sweepNS float64
	for _, a := range st["resilience.sweep"] {
		sweepNS += float64(a.self)
	}
	res.putOne("resilience.case_us", hostTime, ratio(sweepNS/1e3, float64(verifyCases))*ws)
	res.putOne("simnet.hops", virtualTime, traced.hops)
	res.putOne("simnet.cpu_per_wall", hostTime, ratio(plain.rawCPUS, plain.rawWallS))
	res.putOne("trace_overhead_pct", hostTime, (ratio(plain.jobsPerS(), traced.jobsPerS())-1)*100)

	in, err := net15KernelInputs(opts.seed, opts.toy)
	if err == nil {
		_, err = runLedger(in, kernelTarget(opts.toy), res)
	}
	if err != nil {
		res.fail(err)
	}
	res.TraceFile = filepath.Join(opts.outDir, "serve_mix.trace.json")
	if err := tr.write(res.TraceFile); err != nil {
		res.fail(err)
	}
}
