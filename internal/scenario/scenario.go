// Package scenario makes the fault plane scriptable: a JSON scenario
// file names a topology, policy, traffic flows, a list of typed fault
// injections and end-of-run expectations; Run loads it into fresh
// experiment.Worlds (one per run, seeds derived from the file's base
// seed), drives them deterministically on the virtual clock, and emits
// a structured pass/fail verdict. The same file and seed always
// produce byte-identical telemetry dumps, regardless of worker count.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/fault"
	"repro/internal/resilience"
	"repro/internal/topology"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("150ms", "2s") so scenario files stay human-readable.
type Duration time.Duration

// D returns the native duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON quotes String(), which has nothing JSON escapes, so the
// bytes are json.Marshal's.
func (d Duration) MarshalJSON() ([]byte, error) {
	s := time.Duration(d).String()
	return append(append(append(make([]byte, 0, len(s)+2), '"'), s...), '"'), nil
}

// UnmarshalJSON reads a quoted literal with nothing to unescape in
// place; anything else takes encoding/json, and both give the same
// value and error text.
func (d *Duration) UnmarshalJSON(b []byte) error {
	s, err := jsonString(b)
	if err != nil {
		return fmt.Errorf("scenario: durations are strings like \"150ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scenario: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// jsonString decodes a JSON string literal: in place when it decodes
// to itself (valid UTF-8 with no quote, backslash or control byte),
// else through encoding/json.
func jsonString(b []byte) (string, error) {
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		lit := b[1 : len(b)-1]
		if !slices.ContainsFunc(lit, func(c byte) bool { return c < 0x20 || c == '"' || c == '\\' }) && utf8.Valid(lit) {
			return string(lit), nil
		}
	}
	var s string
	err := json.Unmarshal(b, &s)
	return s, err
}

// Spec is one declarative scenario file.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Topology names a canned graph (net15, rnp28, rnp28-fig8, fig1)
	// or a topology.FromSpec generator spec ("fattree:8",
	// "clos:8:4", "isp:200:2:40:7", "rand:12:4:6:9").
	Topology string `json:"topology"`
	// Shards is the number of worker goroutines each run's network
	// runs on; the network is cut into two regions per worker. Results
	// are byte-identical for every value; this is a wall-clock knob
	// only.
	Shards int `json:"shards,omitempty"`
	// Policy is the deflection policy (none/hp/avp/nip/dtree).
	Policy string `json:"policy"`
	// Protection selects the protection installed with each route:
	// a canned driven-deflection set for the topology — "none"
	// (default), "partial" (net15, rnp28) or "full" (net15) — or
	// "auto", which has the controller plan a complete
	// destination-rooted protection tree per route on any topology
	// (required for dtree to earn its guarantee).
	Protection string `json:"protection,omitempty"`
	// Seed is the base seed; run i uses Seed + i*1_000_003.
	Seed int64 `json:"seed"`
	// Runs is how many independent seeded repetitions to execute
	// (default 1).
	Runs int `json:"runs,omitempty"`
	// Duration is the traffic emission window; Drain is extra virtual
	// time afterwards for in-flight packets (default 100ms).
	Duration Duration `json:"duration"`
	Drain    Duration `json:"drain,omitempty"`
	// Detection optionally delays failure visibility and controller
	// notification.
	Detection  *Detection  `json:"detection,omitempty"`
	Flows      []Flow      `json:"flows"`
	Injections []Injection `json:"injections,omitempty"`
	// Phases optionally split the timeline for per-phase traffic
	// accounting; Until values must be ascending.
	Phases []Phase `json:"phases,omitempty"`
	Expect Expect  `json:"expect"`
	// Verify, when set, additionally runs the exhaustive failure-sweep
	// resilience verifier (internal/resilience) over the scenario's
	// flow routes and protection set, and folds its assertions into the
	// verdict.
	Verify *VerifySpec `json:"verify,omitempty"`
}

// VerifySpec is the scenario's static resilience check: before any
// packet is simulated, every single-link failure (plus Pairs seeded
// two-link samples) is swept against the flow routes, per policy.
type VerifySpec struct {
	// Policies to sweep (default: just the scenario's own policy).
	Policies []string `json:"policies,omitempty"`
	// Pairs samples this many two-link failure pairs (seeded by the
	// scenario seed) on top of the exhaustive single-failure sweep.
	Pairs int `json:"pairs,omitempty"`
	// MinSurvival floors every route's single-failure survive fraction.
	MinSurvival *float64 `json:"min_survival,omitempty"`
	// MaxStretch caps every route's worst-case expected stretch among
	// deliverable single-failure cases.
	MaxStretch *float64 `json:"max_stretch,omitempty"`
}

// Detection models failure-detection and notification latency: the
// switches see a link transition DownDelay/UpDelay after it happens
// (pre-detection packets black-hole), and — when React is set — the
// controller's NotifyFailure/NotifyRepair fires NotifyDelay after
// detection and reroutes around the failure.
type Detection struct {
	DownDelay   Duration `json:"down_delay,omitempty"`
	UpDelay     Duration `json:"up_delay,omitempty"`
	NotifyDelay Duration `json:"notify_delay,omitempty"`
	React       bool     `json:"react,omitempty"`
}

// Flow is one CBR (UDP-like) traffic flow between two edge nodes.
type Flow struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	// Path optionally pins the forward route (edge endpoints
	// included); empty means shortest path.
	Path []string `json:"path,omitempty"`
	// Interval between packets (default 1ms) and wire size per packet
	// in bytes (default 1500).
	Interval Duration `json:"interval,omitempty"`
	Size     int      `json:"size,omitempty"`
}

// Injection is one typed fault on the timeline. Kind selects the
// injector; the other fields are its parameters (see internal/fault):
//
//	link_cut:     link, start, duration (0 = forever)
//	flap:         link, start, window, period, duty
//	exp_flap:     link, start, window, mean_down, mean_up [, seed]
//	gray:         link, start, window (0 = forever), drop_prob, corrupt_prob [, seed]
//	switch_crash: switch, start, duration (0 = forever)
//
// Random injectors default to a seed derived from the run seed and the
// injection's position, so runs differ but replays don't; an explicit
// seed pins the injector across all runs.
type Injection struct {
	Kind        string    `json:"kind"`
	Link        [2]string `json:"link,omitempty"`
	Switch      string    `json:"switch,omitempty"`
	Start       Duration  `json:"start"`
	Duration    Duration  `json:"duration,omitempty"`
	Window      Duration  `json:"window,omitempty"`
	Period      Duration  `json:"period,omitempty"`
	Duty        float64   `json:"duty,omitempty"`
	MeanDown    Duration  `json:"mean_down,omitempty"`
	MeanUp      Duration  `json:"mean_up,omitempty"`
	DropProb    float64   `json:"drop_prob,omitempty"`
	CorruptProb float64   `json:"corrupt_prob,omitempty"`
	Seed        *int64    `json:"seed,omitempty"`
}

// Phase is one named slice of the timeline, ending at Until.
type Phase struct {
	Name  string   `json:"name"`
	Until Duration `json:"until"`
}

// Expect lists end-of-run assertions; unset fields are not checked.
type Expect struct {
	// MaxLossFraction bounds 1 - received/sent across all flows.
	MaxLossFraction *float64 `json:"max_loss_fraction,omitempty"`
	// MinDelivered floors the total received packet count.
	MinDelivered *int64 `json:"min_delivered,omitempty"`
	// MinGrayDrops / MinCorrupted floor the kar_fault_* impairment
	// counters — they assert the gray failure actually bit.
	MinGrayDrops *int64 `json:"min_gray_drops,omitempty"`
	MinCorrupted *int64 `json:"min_corrupted,omitempty"`
	// MinDeflections floors kar_switch_deflections_total — it asserts
	// the failures actually exercised the deflection machinery.
	MinDeflections *int64 `json:"min_deflections,omitempty"`
}

// MaxPackets bounds what the flows of one run may emit together (Σ
// duration / interval): a scenario arrives from a file or a daemon
// request, and a 1 ns interval is a run that never ends. The largest
// committed scenario emits 3 000.
const MaxPackets = 10_000_000

// Parse decodes and validates a scenario from r. Unknown fields are
// rejected so typos in scenario files fail loudly.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks everything a run's setup would reject, without
// building a world: names, required fields, phase ordering, each
// flow's route and each injector against the topology (FuzzParse holds
// the two to agreeing).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	g, err := BuildTopology(s.Topology)
	if err != nil {
		return err
	}
	if s.Policy == "" {
		return fmt.Errorf("scenario %s: missing policy", s.Name)
	}
	if _, ok := deflect.ByName(s.Policy); !ok {
		return fmt.Errorf("scenario %s: unknown policy %q", s.Name, s.Policy)
	}
	pairs, _, err := topology.Protection(s.Topology, s.Protection)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	hops, err := core.HopsFromPairs(g, pairs)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: duration must be positive", s.Name)
	}
	if s.Runs < 0 {
		return fmt.Errorf("scenario %s: runs must be >= 0", s.Name)
	}
	if len(s.Flows) == 0 {
		return fmt.Errorf("scenario %s: at least one flow required", s.Name)
	}
	packets := int64(0)
	for i, f := range s.Flows {
		for _, end := range [][2]string{{"src", f.Src}, {"dst", f.Dst}} {
			if n, ok := g.Node(end[1]); !ok || n.Kind() != topology.KindEdge {
				return fmt.Errorf("scenario %s: flow %d: %s %q is not an edge node of %s", s.Name, i, end[0], end[1], s.Topology)
			}
		}
		if err := f.checkRoute(g, hops); err != nil {
			return fmt.Errorf("scenario %s: flow %d (%s->%s): %w", s.Name, i, f.Src, f.Dst, err)
		}
		// Zero means the default; a negative interval re-arms the sender
		// at one virtual instant for ever and a negative size folds a
		// negative byte count into a counter.
		if f.Interval < 0 || f.Size < 0 {
			return fmt.Errorf("scenario %s: flow %d: interval and size must not be negative", s.Name, i)
		}
		interval := f.Interval
		if interval == 0 {
			interval = Duration(time.Millisecond) // udpsim's default
		}
		n := int64(s.Duration / interval)
		if n >= MaxPackets-packets {
			return fmt.Errorf("scenario %s: flows 0-%d emit over %d packets a run, the limit", s.Name, i, MaxPackets)
		}
		packets += n + 1
	}
	for i, inj := range s.Injections {
		built, err := inj.build(s.Seed, i)
		if err == nil {
			err = built.Check(g)
		}
		if err != nil {
			return fmt.Errorf("scenario %s: injection %d: %w", s.Name, i, err)
		}
	}
	if v := s.Verify; v != nil {
		if v.Pairs < 0 {
			return fmt.Errorf("scenario %s: verify: pairs must be >= 0", s.Name)
		}
		routes, policies := s.verifySweep()
		if _, err := resilience.CheckSweep(g, len(routes), policies, v.Pairs); err != nil {
			return fmt.Errorf("scenario %s: verify: %w", s.Name, err)
		}
		if v.MinSurvival != nil && (*v.MinSurvival < 0 || *v.MinSurvival > 1) {
			return fmt.Errorf("scenario %s: verify: min_survival must be in [0,1]", s.Name)
		}
		if v.MaxStretch != nil && *v.MaxStretch <= 0 {
			return fmt.Errorf("scenario %s: verify: max_stretch must be positive", s.Name)
		}
	}
	var prev Duration
	for i, p := range s.Phases {
		if p.Name == "" {
			return fmt.Errorf("scenario %s: phase %d: missing name", s.Name, i)
		}
		if p.Until <= prev {
			return fmt.Errorf("scenario %s: phase %q: until %v not after previous %v", s.Name, p.Name, p.Until.D(), prev.D())
		}
		if p.Until > s.Duration+s.Drain {
			return fmt.Errorf("scenario %s: phase %q ends at %v, past the run end %v", s.Name, p.Name, p.Until.D(), (s.Duration + s.Drain).D())
		}
		prev = p.Until
	}
	return nil
}

// checkRoute holds the flow to the route a run's controller installs:
// its pinned or shortest path, encodable with hops. A valid flow
// allocates nothing.
func (f Flow) checkRoute(g *topology.Graph, hops []core.Hop) error {
	var buf [32]*topology.Node
	nodes := buf[:0]
	if len(f.Path) == 0 {
		var err error
		if nodes, err = topology.AppendShortestPath(nodes, g, f.Src, f.Dst, nil); err != nil {
			return err
		}
	}
	for _, name := range f.Path {
		n, ok := g.Node(name)
		if !ok {
			return fmt.Errorf("path node %q: %w", name, topology.ErrUnknownNode)
		}
		nodes = append(nodes, n)
	}
	return core.CheckRoute(topology.Path{Nodes: nodes}, hops)
}

// build constructs the typed injector for run seed runSeed. Injection
// idx gets the derived seed runSeed + 104729*(idx+1) unless the file
// pins one.
func (inj Injection) build(runSeed int64, idx int) (fault.Injector, error) {
	seed := runSeed + 104729*int64(idx+1)
	if inj.Seed != nil {
		seed = *inj.Seed
	}
	switch inj.Kind {
	case "link_cut":
		return &fault.LinkCut{A: inj.Link[0], B: inj.Link[1], Start: inj.Start.D(), Duration: inj.Duration.D()}, nil
	case "flap":
		return &fault.Flap{A: inj.Link[0], B: inj.Link[1], Start: inj.Start.D(),
			Window: inj.Window.D(), Period: inj.Period.D(), Duty: inj.Duty}, nil
	case "exp_flap":
		return &fault.ExpFlap{A: inj.Link[0], B: inj.Link[1], Start: inj.Start.D(),
			Window: inj.Window.D(), MeanDown: inj.MeanDown.D(), MeanUp: inj.MeanUp.D(), Seed: seed}, nil
	case "gray":
		return &fault.Gray{A: inj.Link[0], B: inj.Link[1], Start: inj.Start.D(),
			Window: inj.Window.D(), DropProb: inj.DropProb, CorruptProb: inj.CorruptProb, Seed: seed}, nil
	case "switch_crash":
		return &fault.SwitchCrash{Switch: inj.Switch, Start: inj.Start.D(), Duration: inj.Duration.D()}, nil
	default:
		return nil, fmt.Errorf("unknown kind %q (want link_cut, flap, exp_flap, gray or switch_crash)", inj.Kind)
	}
}

// BuildTopology resolves a scenario topology name through the shared
// graph cache (topology.Shared).
func BuildTopology(name string) (*topology.Graph, error) { return topology.Shared(name) }

// Request is a scenario job as every front door hands it over — the
// body of the serve daemon's POST /v1/scenarios and what `karsim
// -scenario` builds from its file and flags: a full scenario spec plus
// execution overrides. Overrides that change results (seed, runs,
// shards) edit the spec in Resolve; the rest only tune execution.
type Request struct {
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

// Resolve parses and validates the spec document and applies the
// overrides: a non-nil seed and positive runs and shards replace the
// document's values, anything else leaves them alone.
func (r *Request) Resolve() (*Spec, error) {
	if len(r.Spec) == 0 {
		return nil, fmt.Errorf("scenario: request has no spec")
	}
	spec, err := Parse(bytes.NewReader(r.Spec))
	if err != nil {
		return nil, err
	}
	if r.Seed != nil {
		spec.Seed = *r.Seed
	}
	if r.Runs > 0 {
		spec.Runs = r.Runs
	}
	if r.Shards > 0 {
		spec.Shards = r.Shards
	}
	return spec, nil
}
