package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/measure"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/udpsim"
)

// FailureSpec schedules one link failure.
type FailureSpec struct {
	A, B     string
	From     time.Duration
	Duration time.Duration
}

// TCPRunConfig describes one iperf-style measurement run.
type TCPRunConfig struct {
	// Graph returns the run's topology. It may hand every run the same
	// graph (topology.Shared): a graph is immutable after construction,
	// and each run builds its own world over it.
	Graph func() (*topology.Graph, error)
	// Policy is the deflection policy name (none/hp/avp/nip/dtree).
	Policy string
	// Seed drives all randomness in the run.
	Seed int64
	// Src, Dst are the edge endpoints of the measured flow.
	Src, Dst string
	// Path optionally pins the forward route (endpoint edges
	// included); empty means shortest path.
	Path []string
	// Protection lists the forward driven-deflection hops as
	// (switch, neighbour) pairs.
	Protection [][2]string
	// ReverseBitBudget sizes automatically planned protection for the
	// ACK path (0 = unprotected reverse route). The paper specifies
	// protection only for the measured direction; the reverse path is
	// planned with the §2.3 budgeted planner.
	ReverseBitBudget int
	// Failures to schedule.
	Failures []FailureSpec
	// Duration is the total virtual run time.
	Duration time.Duration
	// SampleEvery is the goodput sampling interval (default 1s).
	SampleEvery time.Duration
	// TCP tunes the transport.
	TCP tcpsim.Config
	// Transport selects the sender implementation: "reno" (default,
	// NewReno + Linux-era reordering robustness) or "sack"
	// (RFC 6675 scoreboard).
	Transport string
	// Metrics, when set, receives the finished world's registry and
	// event log under a deterministic run label (policy/flow/seed) —
	// the karsim -metrics collection point.
	Metrics *telemetry.Collector
	// Trace, when set, attaches a flight recorder to the world and
	// commits its records under the same run label as Metrics — the
	// karsim -trace-export collection point.
	Trace *trace.Collector
	// Scalar runs the scalar data plane, the test oracle: results are
	// byte-identical either way, which TestDeterminismMatrix holds.
	Scalar bool
}

// TCPRunResult carries one run's measurements.
type TCPRunResult struct {
	// Goodput is the per-interval throughput series (Mb/s).
	Goodput *measure.Series
	// Sender and Receiver are final transport counters.
	Sender   tcpsim.SenderStats
	Receiver tcpsim.ReceiverStats
	// Metrics is the run's world registry.
	Metrics *telemetry.Registry
}

// RunTCP executes one measurement run in a fresh world. runSweep is its
// one caller: a single run is a one-run sweep of one cell.
func RunTCP(cfg TCPRunConfig) (*TCPRunResult, error) {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = time.Second
	}
	g, err := cfg.Graph()
	if err != nil {
		return nil, fmt.Errorf("experiment: build graph: %w", err)
	}
	policy, err := PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	w := NewWorld(g, policy, cfg.Seed, scalarPlane(cfg.Scalar)...)
	defer w.Close()
	// Attach the flight recorder before any route install, so the
	// initial ingress programming lands on the control-plane timeline.
	recorder := cfg.Trace.Attach(w.Net)

	// Forward route.
	if len(cfg.Path) > 0 {
		_, err = w.InstallRouteOnPath(cfg.Path, cfg.Protection)
	} else {
		_, err = w.InstallRoute(cfg.Src, cfg.Dst, cfg.Protection)
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: forward route: %w", err)
	}
	// Reverse (ACK) route, with budget-planned protection.
	if err := w.installReverse(cfg.Dst, cfg.Src, cfg.ReverseBitBudget); err != nil {
		return nil, fmt.Errorf("experiment: reverse route: %w", err)
	}

	for _, f := range cfg.Failures {
		if err := w.FailLinkBetween(f.A, f.B, f.From, f.Duration); err != nil {
			return nil, err
		}
	}

	flow := packet.FlowID{Src: cfg.Src, Dst: cfg.Dst}
	var sender tcpSender
	var receiver *tcpsim.Receiver
	switch cfg.Transport {
	case "", "reno":
		sender, receiver = tcpsim.NewFlow(w.Net, w.Edges[cfg.Src], w.Edges[cfg.Dst], flow, cfg.TCP)
	case "sack":
		sender, receiver = tcpsim.NewSACKFlow(w.Net, w.Edges[cfg.Src], w.Edges[cfg.Dst], flow, cfg.TCP)
	default:
		return nil, fmt.Errorf("experiment: unknown transport %q", cfg.Transport)
	}

	// Sample the cumulative in-order bytes every SampleEvery.
	var cumulative []measure.Point
	sched := w.Net.Scheduler()
	var sample func()
	sample = func() {
		cumulative = append(cumulative, measure.Point{T: sched.Now(), V: float64(receiver.BytesInOrder())})
		if sched.Now() < cfg.Duration {
			sched.After(cfg.SampleEvery, sample)
		}
	}
	sched.At(0, sample)
	sender.Start()
	w.Run(cfg.Duration)

	res := &TCPRunResult{
		Goodput:  measure.ThroughputSeries(fmt.Sprintf("%s/%s", cfg.Policy, flow), cumulative),
		Sender:   sender.Stats(),
		Receiver: receiver.Stats(),
		Metrics:  w.Net.Metrics(),
	}
	// Run labels are derived from the configuration only, so the
	// collector's dump is deterministic per seed regardless of worker
	// completion order.
	label := fmt.Sprintf("%s/%s->%s/seed=%d", cfg.Policy, cfg.Src, cfg.Dst, cfg.Seed)
	cfg.Metrics.Add(label, w.Net.Metrics(), w.Net.Events())
	cfg.Trace.Commit(label, recorder)
	return res, nil
}

// probeRun is the one CBR probe run, of Reaction and Table 2: count
// probes 1 ms apart from AS1 to AS3 over net's edges, the named links
// failing at failAt (zero: before the first probe leaves), and drain of
// settling time after the last probe is due.
func probeRun(net *simnet.Network, edges map[string]*edge.Edge, failAt time.Duration, fails [][2]string,
	count int, drain time.Duration) (udpsim.Stats, error) {

	for _, f := range fails {
		l, ok := net.Topology().LinkBetween(f[0], f[1])
		if !ok {
			return udpsim.Stats{}, fmt.Errorf("experiment: no link %s-%s", f[0], f[1])
		}
		if failAt == 0 {
			net.FailLink(l)
		} else {
			net.Scheduler().At(failAt, func() { net.FailLink(l) })
		}
	}
	send, recv := udpsim.NewFlow(net, edges["AS1"], edges["AS3"], packet.FlowID{Src: "AS1", Dst: "AS3"},
		udpsim.Config{Interval: time.Millisecond, Count: count})
	send.Start()
	net.RunUntil(time.Duration(count)*time.Millisecond + drain)
	return recv.Stats(send), nil
}

// tcpSender is the surface shared by the Reno and SACK senders.
type tcpSender interface {
	Start()
	Stats() tcpsim.SenderStats
}

// installReverse installs the dst→src route for ACKs. budgetBits > 0
// plans driven-deflection protection for it under that route-ID size
// budget.
func (w *World) installReverse(src, dst string, budgetBits int) error {
	if budgetBits <= 0 {
		_, err := w.InstallRoute(src, dst, nil)
		return err
	}
	path, err := topology.ShortestPath(w.Net.Topology(), src, dst, nil)
	if err != nil {
		return err
	}
	hops, err := core.PlanProtection(w.Net.Topology(), path, core.PlanOptions{MaxBits: budgetBits})
	if err != nil {
		return err
	}
	route, err := w.Ctrl.InstallRoute(src, dst, hops)
	if err != nil {
		return err
	}
	return w.programIngress(src, dst, route)
}
