package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/controller"
	"repro/internal/coprime"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// kernelInputs describes a workload to the ledger kernels: its graph,
// one of its routes, and through them its route IDs, switch IDs and
// port counts.
type kernelInputs struct {
	g          *topology.Graph
	src, dst   string
	protection [][2]string
	// pairs bounds the controller kernels' route table.
	pairs [][2]string
}

func net15KernelInputs(seed int64, toy bool) (kernelInputs, error) {
	g, err := topology.Net15()
	if err != nil {
		return kernelInputs{}, err
	}
	in := kernelInputs{g: g, src: "AS1", dst: "AS3", protection: topology.Net15FullProtection}
	for _, a := range g.EdgeNodes() {
		for _, b := range g.EdgeNodes() {
			if a != b {
				in.pairs = append(in.pairs, [2]string{a.Name(), b.Name()})
			}
		}
	}
	return in, nil
}

// fattreeKernelInputs takes the fabric and the first 64 of the seeded
// host pairs fattree28_flows installs.
func fattreeKernelInputs(seed int64, toy bool) (kernelInputs, error) {
	cfg := flowsParams(toy)
	g, err := topology.FromSpec(cfg.topo)
	if err != nil {
		return kernelInputs{}, err
	}
	hosts := g.EdgeNodes()
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	in := kernelInputs{g: g}
	seen := make(map[[2]int]bool)
	for len(in.pairs) < min(cfg.pairs, 64) {
		a, b := rng.Intn(len(hosts)), rng.Intn(len(hosts))
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		in.pairs = append(in.pairs, [2]string{hosts[a].Name(), hosts[b].Name()})
	}
	in.src, in.dst = in.pairs[0][0], in.pairs[0][1]
	return in, nil
}

// kernel times one layer alone: run performs n operations and returns
// the time they took (set-up it needs between batches is its own
// business and is left out).
type kernel struct {
	name  string
	scale float64 // ns per reported unit (1: ns, 1e3: us, 1e6: ms)
	run   func(n int) time.Duration
}

// timeKernel grows n until one batch fills target, and returns
// nanoseconds per operation of the last batch.
func timeKernel(target time.Duration, run func(n int) time.Duration) float64 {
	n := 1
	for {
		d := run(n)
		if d >= target || n >= 1<<28 {
			return float64(d) / float64(n)
		}
		if d < target/16 {
			n *= 8
		} else {
			n = int(float64(n)*float64(target)/float64(d)*1.2) + 1
		}
	}
}

// loop adapts a plain n-times body to kernel.run.
func loop(body func(n int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		body(n)
		return time.Since(t0)
	}
}

// sink defeats dead-code elimination of the kernels' results.
var sink int

// wideBasis is a 16-prime full-protection basis whose route IDs exceed
// 64 bits (the math/big residue path).
var wideBasis = []uint64{7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67}

// kernelView is a fixed switch state for the deflection kernels, with
// the port count and modulus of a switch on the workload's route. Port
// `down` is down; port `edge` faces an edge node.
type kernelView struct {
	red              rns.Reducer
	ports, down, edg int
}

func (v kernelView) SwitchID() uint64 { return v.red.Modulus() }
func (v kernelView) Forward(r rns.RouteID) int {
	if u, ok := r.Uint64(); ok {
		return int(v.red.Mod64(u))
	}
	return core.ForwardReduced(v.red, r)
}
func (v kernelView) NumPorts() int       { return v.ports }
func (v kernelView) PortUp(i int) bool   { return i != v.down }
func (v kernelView) EdgePort(i int) bool { return i == v.edg }

// idsWithResidue builds 8 distinct route IDs that all reduce to the
// same residue mod m, so a deflection kernel's branch is fixed while
// the reduction argument still varies per iteration.
func idsWithResidue(residue, m uint64) [8]rns.RouteID {
	var ids [8]rns.RouteID
	for i := range ids {
		ids[i] = rns.RouteIDFromUint64(residue + m*(629875+uint64(i)*977))
	}
	return ids
}

// pingHandler receives on one end of the two-node world.
type pingHandler struct{ n int }

func (h *pingHandler) HandlePacket(pkt *packet.Packet, inPort int) {
	h.n++
	pkt.Release()
}

// linkHopKernel is the link/train/scheduler cost of carrying one
// packet across one link between two trivial handlers: no switch, no
// reduction, no edge.
func linkHopKernel(scalar bool) (func(n int) time.Duration, error) {
	g := topology.New("pair")
	if _, err := g.AddCore("A", 7); err != nil {
		return nil, err
	}
	if _, err := g.AddCore("B", 11); err != nil {
		return nil, err
	}
	if _, err := g.Connect("A", "B", topology.WithRateMbps(10_000), topology.WithQueuePackets(256)); err != nil {
		return nil, err
	}
	var opts []simnet.Option
	if scalar {
		opts = append(opts, simnet.WithScalarDataPlane())
	}
	net := simnet.New(g, opts...)
	a, _ := g.Node("A")
	b, _ := g.Node("B")
	recv := &pingHandler{}
	net.Bind(a, &pingHandler{})
	net.Bind(b, recv)
	port, _ := a.PortToward("B")
	return loop(func(n int) {
		const burst = 128
		for sent := 0; sent < n; {
			k := min(burst, n-sent)
			for i := 0; i < k; i++ {
				p := packet.Get()
				p.Size = 250
				p.TTL = packet.DefaultTTL
				net.Send(a, port, p)
			}
			sent += k
			net.RunUntil(net.Scheduler().Now() + 10*time.Millisecond)
		}
		sink += recv.n
	}), nil
}

// countReceiver terminates kernel flows at an edge.
type countReceiver struct{ n int }

func (c *countReceiver) Deliver(p *packet.Packet) {
	c.n++
	p.Release()
}

// ledgerKernels builds every kernel on the workload's inputs.
func ledgerKernels(in kernelInputs) ([]kernel, error) {
	g := in.g
	path, err := topology.ShortestPath(g, in.src, in.dst, nil)
	if err != nil {
		return nil, err
	}
	hops, err := core.HopsFromPairs(g, in.protection)
	if err != nil {
		return nil, err
	}
	route, err := core.EncodeRoute(path, hops)
	if err != nil {
		return nil, err
	}
	// The switch the kernels stand at: the middle of the route.
	mid := route.Primary[len(route.Primary)/2]
	red := rns.NewReducer(mid.Switch.ID())

	// Route IDs: the workload's own, and 7 neighbours of it, so the
	// reduction argument is never loop-invariant.
	var ids [8]rns.RouteID
	if u, ok := route.ID.Uint64(); ok {
		for i := range ids {
			ids[i] = rns.RouteIDFromUint64(u + uint64(i)*977)
		}
	} else {
		for i := range ids {
			ids[i] = route.ID
		}
	}
	wideSys, err := rns.NewSystem(wideBasis)
	if err != nil {
		return nil, err
	}
	var wideIDs [8]rns.RouteID
	residues := make([]uint64, len(wideBasis))
	for i := range wideIDs {
		for j, m := range wideBasis {
			residues[j] = uint64(i+j) % m
		}
		if wideIDs[i], err = wideSys.Encode(residues); err != nil {
			return nil, err
		}
	}
	batchIDs := make([]rns.RouteID, 64)
	for i := range batchIDs {
		batchIDs[i] = ids[i&7]
	}
	batchOut := make([]uint16, len(batchIDs))

	// CRT encode: the workload route's own basis and residues.
	routeResidues := route.System.Residues(route.ID)

	// Deflection views: the mid switch's port count and modulus.
	ports := mid.Switch.PortSpan()
	if uint64(ports) > mid.Switch.ID() {
		ports = int(mid.Switch.ID())
	}
	if ports < 3 {
		return nil, fmt.Errorf("kernel switch %s has %d ports, need 3", mid.Switch.Name(), ports)
	}
	var view deflect.SwitchView = kernelView{red: red, ports: ports, down: 1, edg: -1}
	onPath := idsWithResidue(2, mid.Switch.ID())  // port 2: up, not the input port 0
	offPath := idsWithResidue(1, mid.Switch.ID()) // port 1: down
	rng := rand.New(rand.NewSource(1))
	decide := func(p deflect.Policy, ids [8]rns.RouteID, deflected bool) func(n int) time.Duration {
		return loop(func(n int) {
			for i := 0; i < n; i++ {
				sink += p.Decide(view, ids[i&7], 0, deflected, rng).Port
			}
		})
	}

	hdr := packet.Header{Version: packet.Version1, TTL: packet.DefaultTTL, RouteID: route.ID}
	wire, err := hdr.Marshal(nil)
	if err != nil {
		return nil, err
	}
	hdrBuf := make([]byte, 0, 64)

	sched := func(depth int) func(n int) time.Duration {
		var s simnet.Scheduler
		fn := func() {}
		for i := 0; i < depth; i++ {
			s.At(time.Hour+time.Duration(i)*time.Microsecond, fn)
		}
		return loop(func(n int) {
			for i := 0; i < n; i++ {
				s.After(time.Microsecond, fn)
				s.Step()
			}
		})
	}

	batched, err := linkHopKernel(false)
	if err != nil {
		return nil, err
	}
	scalar, err := linkHopKernel(true)
	if err != nil {
		return nil, err
	}

	// Fig. 1 world for the whole-pipeline and injection kernels.
	fig1, err := topology.Fig1()
	if err != nil {
		return nil, err
	}
	fw, err := assemble(fig1, worldConfig{policy: "nip", seed: 1}, nil, nil)
	if err != nil {
		return nil, err
	}
	if _, err := fw.installRoute("S", "D", nil, nil, nil); err != nil {
		return nil, err
	}
	sdFlow := packet.FlowID{Src: "S", Dst: "D"}
	fw.edges["D"].Attach(sdFlow, &countReceiver{})
	inject := func(timeDrain bool) func(n int) time.Duration {
		return func(n int) time.Duration {
			var d time.Duration
			const burst = 16
			for sent := 0; sent < n; {
				k := min(burst, n-sent)
				t0 := time.Now()
				for i := 0; i < k; i++ {
					p := packet.Get()
					p.Flow, p.Kind, p.Size = sdFlow, packet.KindData, 1500
					if err := fw.edges["S"].Inject(p); err != nil {
						p.Release()
					}
				}
				if !timeDrain {
					d += time.Since(t0)
				}
				fw.net.RunUntil(fw.net.Scheduler().Now() + 10*time.Millisecond)
				if timeDrain {
					d += time.Since(t0)
				}
				sent += k
			}
			return d
		}
	}

	// FlowSet packet generation (Poisson draw, flow pick, packet fill,
	// timer re-arm, receiver accounting): the per-packet cost of a
	// FlowSet driving Fig. 1, less the same path fed by hand.
	flowsetPipeline := func(n int) time.Duration {
		w, err := assemble(fig1, worldConfig{policy: "nip", seed: 1}, nil, nil)
		if err != nil {
			return 0
		}
		if _, err := w.installRoute("S", "D", nil, nil, nil); err != nil {
			return 0
		}
		const rate = 1000 // packets per virtual second: Fig. 1 never queues
		until := time.Duration(float64(n) / rate * float64(time.Second))
		fs, err := udpsim.NewFlowSet(w.net, []udpsim.Pair{{Src: w.edges["S"], Dst: w.edges["D"]}}, udpsim.SetConfig{
			Name: "kernel", Flows: 1000, Rate: rate / 1000.0, Size: 256, Seed: 1, Until: until,
		})
		if err != nil {
			return 0
		}
		fs.Start()
		t0 := time.Now()
		w.net.RunUntil(until + 100*time.Millisecond)
		d := time.Since(t0)
		// Per generated packet, whatever n asked for.
		return time.Duration(float64(d) * float64(n) / float64(max(fs.Stats().Sent, 1)))
	}

	// One TCP segment and its ACK across Fig. 1 (forwarding included).
	segment := func(n int) time.Duration {
		w, err := assemble(fig1, worldConfig{policy: "nip", seed: 1}, nil, nil)
		if err != nil {
			return 0
		}
		if _, err := w.installRoute("S", "D", nil, nil, nil); err != nil {
			return 0
		}
		if _, err := w.installRoute("D", "S", nil, nil, nil); err != nil {
			return 0
		}
		snd, _ := tcpsim.NewFlow(w.net, w.edges["S"], w.edges["D"], sdFlow, tcpsim.Config{MaxCwnd: 64})
		snd.Start()
		t0 := time.Now()
		var d time.Duration
		for until := 50 * time.Millisecond; ; until *= 2 {
			w.net.RunUntil(until)
			d = time.Since(t0)
			if sent := snd.Stats().SegmentsSent; sent >= int64(n) || until > time.Hour {
				return time.Duration(float64(d) * float64(n) / float64(max(sent, 1)))
			}
		}
	}

	reg := telemetry.NewRegistry()
	ctr := reg.Counter("kar_bench_kernel_total")
	hist := reg.Histogram("kar_bench_kernel_hops", nil)

	var spBuf []*topology.Node
	enc := core.NewEncoder()
	if _, err := enc.EncodeRoute(path, hops); err != nil {
		return nil, err
	}
	mins := make([]uint64, 0, len(g.CoreNodes()))
	for _, n := range g.CoreNodes() {
		mins = append(mins, uint64(n.PortSpan())+1)
	}

	// Controller kernels: the workload's pairs installed, reactive mode
	// for the failure cycle.
	ctrl := controller.New(g, controller.WithFailureReaction(), controller.WithWorkers(1))
	for _, p := range in.pairs {
		if _, err := ctrl.InstallRoute(p[0], p[1], nil); err != nil {
			return nil, err
		}
	}
	links := path.Links()
	failLink := links[len(links)/2]

	return []kernel{
		{"rns.reduce_ns", 1, loop(func(n int) {
			for i := 0; i < n; i++ {
				if u, ok := ids[i&7].Uint64(); ok {
					sink += int(red.Mod64(u))
				} else {
					sink += core.ForwardReduced(red, ids[i&7])
				}
			}
		})},
		{"rns.reduce_batch_ns_per_pkt", 1, func(n int) time.Duration {
			rounds := n/len(batchIDs) + 1
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				red.ReduceBatch(batchIDs, batchOut)
			}
			d := time.Since(t0)
			sink += int(batchOut[0])
			return time.Duration(float64(d) * float64(n) / float64(rounds*len(batchIDs)))
		}},
		{"rns.reduce_wide_ns", 1, loop(func(n int) {
			for i := 0; i < n; i++ {
				sink += core.ForwardReduced(red, wideIDs[i&7])
			}
		})},
		{"rns.crt_encode_ns", 1, loop(func(n int) {
			for i := 0; i < n; i++ {
				id, _ := route.System.Encode(routeResidues)
				sink += id.BitLen()
			}
		})},
		{"core.encode_route_us", 1e3, loop(func(n int) {
			for i := 0; i < n; i++ {
				r, _ := enc.EncodeRoute(path, hops)
				sink += len(r.Primary)
			}
		})},
		{"core.plan_tree_us", 1e3, loop(func(n int) {
			for i := 0; i < n; i++ {
				h, _ := core.NewPlanner(g, nil).Plan(path, core.PlanOptions{})
				sink += len(h)
			}
		})},
		{"deflect.nip_onpath_ns", 1, decide(deflect.NotInputPort{}, onPath, false)},
		{"deflect.nip_deflect_ns", 1, decide(deflect.NotInputPort{}, offPath, false)},
		{"deflect.dtree_onpath_ns", 1, decide(deflect.DTree{}, onPath, false)},
		{"deflect.dtree_fallback_ns", 1, decide(deflect.DTree{}, offPath, true)},
		{"packet.header_marshal_ns", 1, loop(func(n int) {
			for i := 0; i < n; i++ {
				out, _ := hdr.Marshal(hdrBuf[:0])
				sink += len(out)
			}
		})},
		{"packet.header_unmarshal_ns", 1, loop(func(n int) {
			var h packet.Header
			for i := 0; i < n; i++ {
				k, _ := h.Unmarshal(wire)
				sink += k
			}
		})},
		{"packet.pool_cycle_ns", 1, loop(func(n int) {
			for i := 0; i < n; i++ {
				p := packet.Get()
				p.Seq = uint64(i)
				p.Release()
			}
		})},
		{"simnet.sched_cycle_ns", 1, sched(1_000)},
		{"simnet.sched_cycle_deep_ns", 1, sched(100_000)},
		{"simnet.link_hop_ns", 1, batched},
		{"simnet.link_hop_scalar_ns", 1, scalar},
		{"kswitch.pipeline_ns", 1, inject(true)},
		{"edge.inject_ns", 1, inject(false)},
		{"udpsim.flowset_ns_per_pkt", 1, flowsetPipeline},
		{"tcpsim.segment_ns", 1, segment},
		{"telemetry.counter_inc_ns", 1, loop(func(n int) {
			for i := 0; i < n; i++ {
				ctr.Inc()
			}
		})},
		{"telemetry.histogram_observe_ns", 1, loop(func(n int) {
			for i := 0; i < n; i++ {
				hist.Observe(float64(i & 15))
			}
		})},
		{"topology.shortest_path_us", 1e3, loop(func(n int) {
			for i := 0; i < n; i++ {
				spBuf, _ = topology.AppendShortestPath(spBuf[:0], g, in.src, in.dst, nil)
				sink += len(spBuf)
			}
		})},
		{"coprime.assign_ms", 1e6, loop(func(n int) {
			for i := 0; i < n; i++ {
				out, _ := coprime.Assign(mins)
				sink += len(out)
			}
		})},
		{"controller.reencode_us", 1e3, loop(func(n int) {
			for i := 0; i < n; i++ {
				p := in.pairs[i%len(in.pairs)]
				_, port, _ := ctrl.ReencodeRoute(p[0], p[1])
				sink += port
			}
		})},
		{"controller.notify_failure_ms", 1e6, loop(func(n int) {
			for i := 0; i < n; i++ {
				_ = ctrl.NotifyFailure(failLink)
				_ = ctrl.NotifyRepair(failLink)
			}
		})},
	}, nil
}

// runLedger times every kernel, scales it to the reference host speed
// like every other host-time metric, and records it; it returns ns per
// operation by kernel name for the ledger sum.
func runLedger(in kernelInputs, target time.Duration, res *result) (map[string]float64, error) {
	kernels, err := ledgerKernels(in)
	if err != nil {
		return nil, err
	}
	ns := make(map[string]float64, len(kernels))
	before := calibrate(calibTime)
	for _, k := range kernels {
		raw := timeKernel(target, k.run)
		after := calibrate(calibTime)
		ns[k.name] = raw * between(before, after).Wall
		before = after
	}
	// Generation alone: the FlowSet-driven pipeline less the pipeline.
	ns["udpsim.flowset_ns_per_pkt"] = max(ns["udpsim.flowset_ns_per_pkt"]-ns["kswitch.pipeline_ns"], 0)
	for _, k := range kernels {
		res.putOne(k.name, hostTime, ns[k.name]/k.scale)
	}
	return ns, nil
}
