package experiment

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/measure"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// Ablation 1: TCP reordering robustness.

// RenoAblationRow compares transport variants under the same NIP
// deflection scenario.
type RenoAblationRow struct {
	Transport  string
	DuringMbps float64
	FastRetx   int64
	Undos      int64
	Timeouts   int64
}

// RenoAblation quantifies DESIGN.md's TCP-fidelity claim: wide
// per-packet deflection multipath destroys strict Reno (reordering
// reads as loss), while the Linux-era mechanisms the paper's endpoints
// ran — adaptive dup-ACK threshold and DSACK undo — retain most
// throughput. Scenario: the RNP backbone's SW13-SW41 failure (the
// paper's worst Fig. 7 case: 5-way deflection and long wanders), NIP,
// partial protection. workers bounds the variants in flight (0: one
// per CPU).
func RenoAblation(seed int64, workers int) ([]RenoAblationRow, error) {
	variants := []struct {
		name      string
		transport string
		cfg       tcpsim.Config
	}{
		{name: "adaptive NewReno (Linux-like)", transport: "reno", cfg: rnpTCP()},
		{name: "SACK scoreboard (RFC 6675)", transport: "sack", cfg: rnpTCP()},
		{name: "strict Reno", transport: "reno", cfg: func() tcpsim.Config {
			c := rnpTCP()
			c.DupAckThreshold = 3
			c.MaxDupAckThreshold = 3 // no reordering adaptation
			c.DisableUndo = true     // no DSACK undo
			return c
		}()},
	}
	cells := make([]sweepCell, len(variants))
	for i, v := range variants {
		cells[i] = sweepCell{run: rnpRun(), fail: [2]string{"SW13", "SW41"}}
		cells[i].run.TCP, cells[i].run.Transport = v.cfg, v.transport
	}
	// One 12 s run per variant, all on the same seed, measured after a
	// 2 s ramp.
	res, err := runSweep(RepeatConfig{
		Runs: 1, RunDuration: 12 * time.Second, WarmUp: 2 * time.Second, Seed: seed, Workers: workers,
	}, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]RenoAblationRow, len(variants))
	for i, v := range variants {
		rows[i] = RenoAblationRow{
			Transport:  v.name,
			DuringMbps: res[i].Goodput.Mean,
			FastRetx:   res[i].Sender.FastRetransmits,
			Undos:      res[i].Sender.Undos,
			Timeouts:   res[i].Sender.Timeouts,
		}
	}
	return rows, nil
}

// RenoAblationTable renders the comparison.
func RenoAblationTable(rows []RenoAblationRow) *measure.Table {
	tbl := &measure.Table{
		Title:   "Ablation: transport reordering robustness under NIP deflection (RNP SW13-SW41 failed)",
		Headers: []string{"Transport", "Goodput (Mb/s)", "Fast retx", "DSACK undos", "Timeouts"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Transport, fmt.Sprintf("%.1f", r.DuringMbps),
			fmt.Sprint(r.FastRetx), fmt.Sprint(r.Undos), fmt.Sprint(r.Timeouts))
	}
	return tbl
}

// ---------------------------------------------------------------------------
// Ablation 2: deflection vs the traditional reactive controller.

// ReactionRow compares failure-recovery strategies on the same
// failure under CBR probe traffic.
type ReactionRow struct {
	Strategy  string
	Delivered int
	Sent      int
	LostPct   float64
	MeanHops  float64
}

// controlDelay is the data-plane→controller→ingress round trip the
// reactive strategy pays before the recomputed route takes effect.
const controlDelay = 250 * time.Millisecond

// ReactionConfig parameterises the reaction-strategy comparison.
type ReactionConfig struct {
	// Seed drives the per-switch RNGs.
	Seed int64
	// Metrics, when non-nil, collects each strategy world's registry
	// and event log under a deterministic run label.
	Metrics *telemetry.Collector
	// Trace, when non-nil, collects each strategy world's
	// flight-recorder trace under the same label.
	Trace *trace.Collector
}

// Reaction contrasts KAR's data-plane reaction with the "traditional
// approach" the paper's introduction describes: no deflection, the
// switch reports the failure, and the controller recomputes routes
// after a control-plane delay — every in-flight and subsequently sent
// packet is lost until the new route ID is installed. CBR probes (1 ms
// spacing) over Net15 with SW7-SW13 failing at t=100 ms. The reactive
// world carries a route for every ordered edge pair — the probes only
// use AS1→AS3, but the controller's incremental reroute then has a
// realistic table to skip over, which is what the
// recomputed-vs-skipped counters in the -metrics dump are about.
func Reaction(cfg ReactionConfig) ([]ReactionRow, error) {
	const (
		probes = 2000
		failAt = 100 * time.Millisecond
	)
	strategies := []struct {
		name     string
		slug     string
		policy   string
		reactive bool
	}{
		{name: "KAR driven deflection (NIP)", slug: "kar-nip", policy: "nip", reactive: false},
		{name: fmt.Sprintf("reactive controller (%v notify+install)", controlDelay), slug: "reactive", policy: "none", reactive: true},
		{name: "no deflection, no reaction", slug: "static", policy: "none", reactive: false},
	}

	rows := make([]ReactionRow, 0, len(strategies))
	for _, s := range strategies {
		g, err := topology.Net15()
		if err != nil {
			return nil, err
		}
		var opts []any
		if s.reactive {
			opts = append(opts, controller.WithFailureReaction())
		}
		w := NewWorld(g, mustPolicy(s.policy), cfg.Seed, opts...)
		recorder := cfg.Trace.Attach(w.Net)
		var protection [][2]string
		if s.policy == "nip" {
			protection = topology.Net15FullProtection
		}
		if _, err := w.InstallRoute("AS1", "AS3", protection); err != nil {
			return nil, err
		}
		if s.reactive {
			// Fill the reactive controller's table: every other edge
			// pair too. Policy "none" never misdelivers, so these
			// routes carry no probe traffic — they exist to be skipped
			// (or not) by the incremental reroute.
			for _, a := range g.EdgeNodes() {
				for _, b := range g.EdgeNodes() {
					if a == b || (a.Name() == "AS1" && b.Name() == "AS3") {
						continue
					}
					if _, err := w.InstallRoute(a.Name(), b.Name(), nil); err != nil {
						return nil, err
					}
				}
			}
			// The data plane reports the failure; after the control
			// round trip the controller recomputes and the ingress is
			// reprogrammed with the new route ID.
			w.ReactAfter(controlDelay, [][2]string{{"AS1", "AS3"}})
		}

		st, err := probeRun(w.Net, w.Edges, failAt, [][2]string{{"SW7", "SW13"}}, probes, 10*time.Second)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ReactionRow{
			Strategy:  s.name,
			Delivered: st.Received,
			Sent:      st.Sent,
			LostPct:   float64(st.Sent-st.Received) / float64(st.Sent) * 100,
			MeanHops:  st.MeanHops(),
		})
		// Run labels derive from configuration only, keeping the
		// collector dump byte-identical per seed at any worker count.
		label := fmt.Sprintf("reaction/%s/seed=%d", s.slug, cfg.Seed)
		cfg.Metrics.Add(label, w.Net.Metrics(), w.Net.Events())
		cfg.Trace.Commit(label, recorder)
		w.Close() // before the next strategy's world, which reuses its data plane
	}
	return rows, nil
}

// ReactionTable renders the comparison.
func ReactionTable(rows []ReactionRow) *measure.Table {
	tbl := &measure.Table{
		Title:   "Failure reaction strategies: 2000 probes at 1 ms, SW7-SW13 fails at t=100 ms",
		Headers: []string{"Strategy", "Delivered", "Lost", "Mean hops"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Strategy,
			fmt.Sprintf("%d/%d", r.Delivered, r.Sent),
			fmt.Sprintf("%.1f%%", r.LostPct),
			fmt.Sprintf("%.2f", r.MeanHops))
	}
	return tbl
}
