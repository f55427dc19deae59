package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/measure"
	"repro/internal/packet"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
)

// FailureSpec schedules one link failure.
type FailureSpec struct {
	A, B     string
	From     time.Duration
	Duration time.Duration
}

// TCPRunConfig describes one iperf-style measurement run.
type TCPRunConfig struct {
	// Graph builds a fresh topology for the run (worlds are never
	// shared between runs).
	Graph func() (*topology.Graph, error)
	// Policy is the deflection policy name (none/hp/avp/nip).
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
	// Cumulative is the sampled cumulative goodput (bytes).
	Cumulative []measure.Point
	// Goodput is the per-interval throughput series (Mb/s).
	Goodput *measure.Series
	// Sender and Receiver are final transport counters.
	Sender   tcpsim.SenderStats
	Receiver tcpsim.ReceiverStats
	// SrcEdge and DstEdge are final edge counters.
	SrcEdge, DstEdge edge.Stats
	// Route is the installed forward route.
	Route *core.Route
	// Metrics is the run's world registry; Events its control-plane
	// event stream.
	Metrics *telemetry.Registry
	Events  []telemetry.Event
}

// MeanMbps returns the mean goodput over [from, to).
func (r *TCPRunResult) MeanMbps(from, to time.Duration) float64 {
	w := r.Goodput.Window(from, to)
	if len(w.Points) == 0 {
		return 0
	}
	return w.Mean()
}

// RunTCP executes one measurement run in a fresh world.
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
	// Attach the flight recorder before any route install, so the
	// initial ingress programming lands on the control-plane timeline.
	recorder := cfg.Trace.Attach(w.Net)

	// Forward route.
	var route *core.Route
	if len(cfg.Path) > 0 {
		route, err = w.InstallRouteOnPath(cfg.Path, cfg.Protection)
	} else {
		route, err = w.InstallRoute(cfg.Src, cfg.Dst, cfg.Protection)
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

	res := &TCPRunResult{Route: route}
	sched := w.Net.Scheduler()
	var sample func()
	sample = func() {
		res.Cumulative = append(res.Cumulative, measure.Point{T: sched.Now(), V: float64(receiver.BytesInOrder())})
		if sched.Now() < cfg.Duration {
			sched.After(cfg.SampleEvery, sample)
		}
	}
	sched.At(0, sample)
	sender.Start()
	w.Run(cfg.Duration)

	res.Goodput = measure.ThroughputSeries(fmt.Sprintf("%s/%s", cfg.Policy, flow), res.Cumulative)
	res.Sender = sender.Stats()
	res.Receiver = receiver.Stats()
	res.SrcEdge = w.Edges[cfg.Src].Stats()
	res.DstEdge = w.Edges[cfg.Dst].Stats()
	res.Metrics = w.Net.Metrics()
	res.Events = w.Net.Events().Events()
	// Run labels are derived from the configuration only, so the
	// collector's dump is deterministic per seed regardless of worker
	// completion order.
	label := fmt.Sprintf("%s/%s->%s/seed=%d", cfg.Policy, cfg.Src, cfg.Dst, cfg.Seed)
	cfg.Metrics.Add(label, w.Net.Metrics(), w.Net.Events())
	cfg.Trace.Commit(label, recorder)
	return res, nil
}

// tcpSender is the surface shared by the Reno and SACK senders.
type tcpSender interface {
	Start()
	Stop()
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
