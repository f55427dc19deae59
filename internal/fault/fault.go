// Package fault provides composable, seeded failure injectors layered
// on simnet.Network: one-shot link cuts, deterministic and exponential
// link flapping, gray failures (probabilistic drop / bit corruption on
// a nominally-up line), and whole-switch crashes. Injectors only
// schedule virtual-time callbacks at install; all randomness comes
// from a single *rand.Rand seeded per injector, so a scenario replays
// byte-identically for the same seed. Down-state composes through the
// network's reference-counted holds: concurrent injectors on one link
// stack instead of fighting each other's repairs.
package fault

import (
	"fmt"
	"time"

	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Injector is one fault process that can be armed on a network. Kind
// names the injector type (stable, used as a metric label), Target the
// link or node it acts on, Check validates the target and parameters
// against a topology, and Install checks, then schedules the
// injector's whole timeline on the network's scheduler. Install must
// be called before the simulation runs.
type Injector interface {
	Kind() string
	Target() string
	Check(g *topology.Graph) error
	Install(net *simnet.Network) error
}

// activate stamps the injector's activation on the telemetry plane: a
// fault_inject event at the current virtual instant plus one count in
// the kar_fault_injections_total family.
func activate(net *simnet.Network, inj Injector, detail string) {
	net.Metrics().Help("kar_fault_injections_total", "Fault injector activations, by injector kind.")
	net.Metrics().Counter("kar_fault_injections_total", "kind", inj.Kind()).Inc()
	net.Events().Record(telemetry.EventFaultInject, inj.Target(), detail)
}

func checkLink(g *topology.Graph, kind, a, b string) error {
	if _, ok := g.LinkBetween(a, b); !ok {
		return fmt.Errorf("fault: %s: no link %s-%s in topology %q", kind, a, b, g.Name())
	}
	return nil
}

// LinkCut takes the A-B link down at Start and brings it back after
// Duration; Duration <= 0 cuts it for the rest of the run.
type LinkCut struct {
	A, B     string
	Start    time.Duration
	Duration time.Duration
}

func (c *LinkCut) Kind() string   { return "link_cut" }
func (c *LinkCut) Target() string { return c.A + "-" + c.B }

func (c *LinkCut) Check(g *topology.Graph) error { return checkLink(g, c.Kind(), c.A, c.B) }

func (c *LinkCut) Install(net *simnet.Network) error {
	if err := c.Check(net.Topology()); err != nil {
		return err
	}
	l, _ := net.Topology().LinkBetween(c.A, c.B)
	sched := net.Scheduler()
	sched.At(c.Start, func() {
		activate(net, c, fmt.Sprintf("duration=%v", c.Duration))
		net.AcquireLinkDown(l)
	})
	if c.Duration > 0 {
		sched.At(c.Start+c.Duration, func() { net.ReleaseLinkDown(l) })
	}
	return nil
}

// Flap is a deterministic on/off process: starting at Start and for
// Window, the A-B link goes down at the top of every Period and comes
// back after Duty*Period. No randomness — the full event train is
// precomputed at install, clamped to the window.
type Flap struct {
	A, B   string
	Start  time.Duration
	Window time.Duration
	Period time.Duration
	Duty   float64 // fraction of each period spent down, in (0,1)
}

func (f *Flap) Kind() string   { return "flap" }
func (f *Flap) Target() string { return f.A + "-" + f.B }

func (f *Flap) Check(g *topology.Graph) error {
	if f.Period <= 0 {
		return fmt.Errorf("fault: flap %s: period %v must be positive", f.Target(), f.Period)
	}
	if f.Duty <= 0 || f.Duty >= 1 {
		return fmt.Errorf("fault: flap %s: duty %v must be in (0,1)", f.Target(), f.Duty)
	}
	if f.Window <= 0 {
		return fmt.Errorf("fault: flap %s: window %v must be positive", f.Target(), f.Window)
	}
	return checkLink(g, f.Kind(), f.A, f.B)
}

func (f *Flap) Install(net *simnet.Network) error {
	if err := f.Check(net.Topology()); err != nil {
		return err
	}
	l, _ := net.Topology().LinkBetween(f.A, f.B)
	sched := net.Scheduler()
	end := f.Start + f.Window
	downFor := time.Duration(f.Duty * float64(f.Period))
	sched.At(f.Start, func() {
		activate(net, f, fmt.Sprintf("period=%v duty=%v window=%v", f.Period, f.Duty, f.Window))
	})
	for k := 0; ; k++ {
		downAt := f.Start + time.Duration(k)*f.Period
		if downAt >= end {
			break
		}
		upAt := downAt + downFor
		if upAt > end {
			upAt = end
		}
		sched.At(downAt, func() { net.AcquireLinkDown(l) })
		sched.At(upAt, func() { net.ReleaseLinkDown(l) })
	}
	return nil
}

// ExpFlap is a renewal on/off process: up times ~ Exp(MeanUp), down
// times ~ Exp(MeanDown), both drawn lazily from one rng seeded with
// Seed. The process starts up at Start and is forced back up when the
// window closes, so the injector never leaks a hold past its window.
type ExpFlap struct {
	A, B     string
	Start    time.Duration
	Window   time.Duration
	MeanDown time.Duration
	MeanUp   time.Duration
	Seed     int64
}

func (f *ExpFlap) Kind() string   { return "exp_flap" }
func (f *ExpFlap) Target() string { return f.A + "-" + f.B }

func (f *ExpFlap) Check(g *topology.Graph) error {
	if f.MeanDown <= 0 || f.MeanUp <= 0 {
		return fmt.Errorf("fault: exp_flap %s: mean down %v and mean up %v must be positive", f.Target(), f.MeanDown, f.MeanUp)
	}
	if f.Window <= 0 {
		return fmt.Errorf("fault: exp_flap %s: window %v must be positive", f.Target(), f.Window)
	}
	return checkLink(g, f.Kind(), f.A, f.B)
}

func (f *ExpFlap) Install(net *simnet.Network) error {
	if err := f.Check(net.Topology()); err != nil {
		return err
	}
	l, _ := net.Topology().LinkBetween(f.A, f.B)
	rng := xrand.New(f.Seed)
	sched := net.Scheduler()
	end := f.Start + f.Window
	draw := func(mean time.Duration) time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		if d < time.Nanosecond {
			d = time.Nanosecond
		}
		return d
	}
	var goDown, goUp func()
	goDown = func() {
		now := sched.Now()
		if now >= end {
			return
		}
		net.AcquireLinkDown(l)
		upAt := now + draw(f.MeanDown)
		if upAt > end {
			upAt = end
		}
		sched.At(upAt, goUp)
	}
	goUp = func() {
		net.ReleaseLinkDown(l)
		downAt := sched.Now() + draw(f.MeanUp)
		if downAt < end {
			sched.At(downAt, goDown)
		}
	}
	sched.At(f.Start, func() {
		activate(net, f, fmt.Sprintf("mean_down=%v mean_up=%v window=%v seed=%d", f.MeanDown, f.MeanUp, f.Window, f.Seed))
		downAt := sched.Now() + draw(f.MeanUp)
		if downAt < end {
			sched.At(downAt, goDown)
		}
	})
	return nil
}

// Gray installs a gray-failure impairment on the A-B line: each
// transiting packet is silently dropped with DropProb, else has one
// route-ID bit flipped with CorruptProb. The line stays nominally up
// the whole time — switches keep forwarding into it — which is exactly
// what makes gray failures nasty. Window <= 0 leaves the impairment on
// for the rest of the run.
type Gray struct {
	A, B        string
	Start       time.Duration
	Window      time.Duration
	DropProb    float64
	CorruptProb float64
	Seed        int64
}

func (g *Gray) Kind() string   { return "gray" }
func (g *Gray) Target() string { return g.A + "-" + g.B }

func (g *Gray) Check(t *topology.Graph) error {
	if g.DropProb < 0 || g.CorruptProb < 0 || g.DropProb+g.CorruptProb > 1 {
		return fmt.Errorf("fault: gray %s: drop %v + corrupt %v must stay within [0,1]", g.Target(), g.DropProb, g.CorruptProb)
	}
	return checkLink(t, g.Kind(), g.A, g.B)
}

func (g *Gray) Install(net *simnet.Network) error {
	if err := g.Check(net.Topology()); err != nil {
		return err
	}
	l, _ := net.Topology().LinkBetween(g.A, g.B)
	sched := net.Scheduler()
	sched.At(g.Start, func() {
		activate(net, g, fmt.Sprintf("drop=%v corrupt=%v window=%v seed=%d", g.DropProb, g.CorruptProb, g.Window, g.Seed))
		net.SetImpairment(l, &simnet.Impairment{
			DropProb:    g.DropProb,
			CorruptProb: g.CorruptProb,
			Rand:        xrand.New(g.Seed),
		})
	})
	if g.Window > 0 {
		sched.At(g.Start+g.Window, func() { net.SetImpairment(l, nil) })
	}
	return nil
}

// SwitchCrash takes every port of one switch down atomically at Start
// — the node vanishes from the data plane in a single virtual instant
// — and restores all of them after Duration (<= 0: permanently).
type SwitchCrash struct {
	Switch   string
	Start    time.Duration
	Duration time.Duration
}

func (c *SwitchCrash) Kind() string   { return "switch_crash" }
func (c *SwitchCrash) Target() string { return c.Switch }

// links resolves the switch's links on g.
func (c *SwitchCrash) links(g *topology.Graph) ([]*topology.Link, error) {
	node, ok := g.Node(c.Switch)
	if !ok {
		return nil, fmt.Errorf("fault: switch_crash: no node %q in topology %q", c.Switch, g.Name())
	}
	links := make([]*topology.Link, 0, node.Degree())
	for i := 0; i < node.Degree(); i++ {
		if l, ok := node.PortLink(i); ok {
			links = append(links, l)
		}
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("fault: switch_crash: node %q has no links", c.Switch)
	}
	return links, nil
}

func (c *SwitchCrash) Check(g *topology.Graph) error {
	_, err := c.links(g)
	return err
}

func (c *SwitchCrash) Install(net *simnet.Network) error {
	links, err := c.links(net.Topology())
	if err != nil {
		return err
	}
	sched := net.Scheduler()
	sched.At(c.Start, func() {
		activate(net, c, fmt.Sprintf("ports=%d duration=%v", len(links), c.Duration))
		for _, l := range links {
			net.AcquireLinkDown(l)
		}
	})
	if c.Duration > 0 {
		sched.At(c.Start+c.Duration, func() {
			for _, l := range links {
				net.ReleaseLinkDown(l)
			}
		})
	}
	return nil
}
