package main

// metricSpec declares one metric. BENCHMARK.json at the repository
// root carries the same lists (the smoke test holds the two together);
// this copy is what lets the program run without reading that file.
type metricSpec struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the simulator or the daemon sees,
// measured with tracing off. Every workload reports every one: a
// "job" is one complete simulation — a rep of a simulator workload
// (set-up plus run), a daemon job on serve_mix — and a "hop" is one
// packet handed to a node handler (kar_net_delivered_total).
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"hops_per_s", "hops/s", "higher"},
	{"cpu_ns_per_hop", "ns", "lower"},
	{"allocs_per_khop", "allocs/khop", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p99_ms", "ms", "lower"},
	{"cpu_ms_per_job", "ms", "lower"},
}

// perLayerMetrics are recorded by the traced run only, named
// <module>.<metric>. A value of 0 means the layer did no work in that
// workload. Three sources: spans around the harness's calls into the
// layers, handler interposition plus the worlds' own registries, and
// the ledger kernels.
var perLayerMetrics = []metricSpec{
	// Stage spans (self time per rep, or per call where the unit is us).
	{"topology.build_ms", "ms", "lower"},
	{"simnet.new_ms", "ms", "lower"},
	{"controller.new_ms", "ms", "lower"},
	{"kswitch.install_all_ms", "ms", "lower"},
	{"edge.new_ms", "ms", "lower"},
	{"controller.install_route_us", "us", "lower"},
	{"controller.routes", "count", "lower"},
	{"edge.install_route_us", "us", "lower"},
	{"udpsim.new_flowset_ms", "ms", "lower"},
	{"simnet.run_until_ms", "ms", "lower"},
	{"udpsim.stats_ms", "ms", "lower"},
	{"telemetry.write_prometheus_ms", "ms", "lower"},
	{"telemetry.series", "count", "lower"},
	{"experiment.fig5_cell_ms", "ms", "lower"},
	// serve_mix: client-side spans, server-side handler wrapper, the
	// daemon's own registry, and the same specs run directly.
	{"serve.submit_ms", "ms", "lower"},
	{"serve.follow_ms", "ms", "lower"},
	{"serve.result_ms", "ms", "lower"},
	{"serve.handler_submit_us", "us", "lower"},
	{"serve.handler_events_us", "us", "lower"},
	{"serve.handler_result_us", "us", "lower"},
	{"serve.exec_mean_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.rejected_429", "count", "lower"},
	{"serve.queue_depth_max", "count", "lower"},
	{"serve.small_p50_ms", "ms", "lower"},
	{"serve.gray_p50_ms", "ms", "lower"},
	{"serve.flap_p50_ms", "ms", "lower"},
	{"serve.verify_p50_ms", "ms", "lower"},
	{"scenario.parse_us", "us", "lower"},
	{"scenario.run_ms", "ms", "lower"},
	{"resilience.sweep_ms", "ms", "lower"},
	{"resilience.case_us", "us", "lower"},
	// Handler interposition and registry counts.
	{"kswitch.handle_calls", "count", "lower"},
	{"kswitch.handle_ns", "ns", "lower"},
	{"kswitch.batch_share", "ratio", "higher"},
	{"edge.handle_calls", "count", "lower"},
	{"edge.handle_ns", "ns", "lower"},
	{"simnet.run_self_ns_per_hop", "ns", "lower"},
	{"simnet.hops", "count", "lower"},
	{"simnet.sends", "count", "lower"},
	{"simnet.queue_drops", "count", "lower"},
	{"simnet.run_allocs_per_khop", "allocs/khop", "lower"},
	{"kswitch.deflect_share", "ratio", "lower"},
	{"edge.reencodes", "count", "lower"},
	{"tcpsim.retransmits", "count", "lower"},
	{"tcpsim.goodput_mbps", "Mb/s", "higher"},
	{"udpsim.delivery_ratio", "ratio", "higher"},
	{"udpsim.mean_hops", "hops", "lower"},
	{"simnet.cpu_per_wall", "ratio", "lower"},
	{"simnet.serial_hops_per_s", "hops/s", "higher"},
	{"trace.recorder_overhead_pct", "%", "lower"},
	// Ledger kernels: each data-plane layer timed alone.
	{"rns.reduce_ns", "ns", "lower"},
	{"rns.reduce_batch_ns_per_pkt", "ns", "lower"},
	{"rns.reduce_wide_ns", "ns", "lower"},
	{"rns.crt_encode_ns", "ns", "lower"},
	{"core.encode_route_us", "us", "lower"},
	{"core.plan_tree_us", "us", "lower"},
	{"deflect.nip_onpath_ns", "ns", "lower"},
	{"deflect.nip_deflect_ns", "ns", "lower"},
	{"deflect.dtree_onpath_ns", "ns", "lower"},
	{"deflect.dtree_fallback_ns", "ns", "lower"},
	{"packet.header_marshal_ns", "ns", "lower"},
	{"packet.header_unmarshal_ns", "ns", "lower"},
	{"packet.pool_cycle_ns", "ns", "lower"},
	{"simnet.sched_cycle_ns", "ns", "lower"},
	{"simnet.sched_cycle_deep_ns", "ns", "lower"},
	{"simnet.link_hop_ns", "ns", "lower"},
	{"simnet.link_hop_scalar_ns", "ns", "lower"},
	{"kswitch.pipeline_ns", "ns", "lower"},
	{"edge.inject_ns", "ns", "lower"},
	{"udpsim.flowset_ns_per_pkt", "ns", "lower"},
	{"tcpsim.segment_ns", "ns", "lower"},
	{"telemetry.counter_inc_ns", "ns", "lower"},
	{"telemetry.histogram_observe_ns", "ns", "lower"},
	{"topology.shortest_path_us", "us", "lower"},
	{"coprime.assign_ms", "ms", "lower"},
	{"controller.reencode_us", "us", "lower"},
	{"controller.notify_failure_ms", "ms", "lower"},
	// The ledger's account of the end-to-end cost per hop, and what
	// the traced run itself costs.
	{"ledger.sum_ns_per_hop", "ns", "lower"},
	{"ledger.unattributed_ns_per_hop", "ns", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

// workloadSpec names a workload and records why it exists.
type workloadSpec struct {
	name, why string
}

var workloads = []workloadSpec{
	{"net15_saturate", "healthy fast path on one shard: long packet trains, ReduceBatch, burst switch pipeline, 0 deflections; set-up, controller and transport idle"},
	{"fattree28_flows", "980-switch world at shards=2: deep event heaps, Poisson arrivals over 10^6 flows, singleton trains, cut links, world construction; rns and deflect idle"},
	{"net15_tcp_failover", "one Fig. 5 sweep: a third of forwards deflect, edges re-encode through the controller, TCP timers and ACKs; the slow path the fast path must not be bought with"},
	{"serve_mix", "closed loop of 2 clients through the daemon: admission, queue, event streaming, topology cache and a world per 2-30 ms job; 10% verify jobs set the tail"},
}
