package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/measure"
	"repro/internal/trace"
)

// runTrace analyses a flight-recorder export written by karsim
// -trace-export: per-packet journeys (every hop with its in-port,
// encoded residue, chosen out-port and deflection cause),
// deflection-cause breakdowns, and the control-plane reaction-latency
// table (failure → detection → reroute → install → first post-repair
// delivery, with percentiles across reaction chains).
//
//	karsim -scenario flap.json -trace-export t   # produces t.jsonl
//	karsim trace -in t.jsonl                     # summary + reaction table
//	karsim trace -in t.jsonl -journeys 5         # also print 5 journeys per run
//	karsim trace -in t.jsonl -flow AS1:AS3       # restrict to one flow
func runTrace(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("karsim trace", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "flight-recorder JSONL file (karsim -trace-export <prefix> writes <prefix>.jsonl)")
		flow   = fs.String("flow", "", "restrict to one flow, as src:dst (either direction)")
		detail = fs.Int("journeys", 0, "print hop-by-hop detail for up to this many journeys per run")
		csv    = fs.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	var src, dst string
	if *flow != "" {
		var ok bool
		if src, dst, ok = strings.Cut(*flow, ":"); !ok {
			return fmt.Errorf("-flow %q: want src:dst", *flow)
		}
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	runs, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("%s: no records", *in)
	}

	for _, rt := range runs {
		records := rt.Records
		if *flow != "" {
			records = filterFlow(records, src, dst)
		}
		journeys := trace.Journeys(records)
		reactions := trace.Reactions(rt.Records) // reaction chains are flow-independent

		fmt.Fprintf(stdout, "== run %s: %d records, %d journeys, %d reaction chains\n",
			rt.Run, len(records), len(journeys), len(reactions))
		tables := []*measure.Table{journeySummary(journeys)}
		if tbl := causeTable(journeys); len(tbl.Rows) > 0 {
			tables = append(tables, tbl)
		}
		if len(reactions) > 0 {
			tables = append(tables, reactionTable(reactions))
		}
		printTables(stdout, *csv, tables...)
		for i, j := range journeys {
			if i >= *detail {
				break
			}
			fmt.Fprintln(stdout)
			printJourney(stdout, j)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// filterFlow keeps the records of the flow between a and b, in either
// direction. Control-plane records always pass.
func filterFlow(recs []trace.Record, a, b string) []trace.Record {
	out := make([]trace.Record, 0, len(recs))
	for _, r := range recs {
		if r.Kind == trace.RecCtrl ||
			(r.Flow.Src == a && r.Flow.Dst == b) ||
			(r.Flow.Src == b && r.Flow.Dst == a) {
			out = append(out, r)
		}
	}
	return out
}

// journeySummary aggregates journeys per flow: outcomes, hop counts,
// stretch vs the encoded baseline, deflection counts.
func journeySummary(js []trace.Journey) *measure.Table {
	type agg struct {
		flow                      string
		total, delivered, dropped int
		deflections               int
		worstStretch              float64
		stretchSum                float64
		stretched                 int // journeys with a known baseline
		sumLat                    time.Duration
	}
	byFlow := make(map[string]*agg)
	var order []string
	for _, j := range js {
		key := fmt.Sprintf("%s->%s %s", j.Flow.Src, j.Flow.Dst, j.PktKind)
		a := byFlow[key]
		if a == nil {
			a = &agg{flow: key}
			byFlow[key] = a
			order = append(order, key)
		}
		a.total++
		switch {
		case j.Outcome == "delivered":
			a.delivered++
			a.sumLat += j.End - j.Start
		case j.Outcome != "in-flight":
			a.dropped++
		}
		a.deflections += j.Deflections()
		// Stretch only makes sense for completed journeys: a packet
		// dropped mid-path has fewer hops than the baseline by dying,
		// not by routing well.
		if s := j.Stretch(); s > 0 && j.Outcome == "delivered" {
			a.stretchSum += s
			a.stretched++
			if s > a.worstStretch {
				a.worstStretch = s
			}
		}
	}
	sort.Strings(order)
	tbl := &measure.Table{
		Title:   "Journeys by flow",
		Headers: []string{"flow", "journeys", "delivered", "dropped", "deflections", "mean stretch", "worst stretch", "mean latency"},
	}
	for _, key := range order {
		a := byFlow[key]
		meanStretch, worst := "-", "-"
		if a.stretched > 0 {
			meanStretch = fmt.Sprintf("%.2f", a.stretchSum/float64(a.stretched))
			worst = fmt.Sprintf("%.2f", a.worstStretch)
		}
		meanLat := "-"
		if a.delivered > 0 {
			meanLat = fmtDur(a.sumLat / time.Duration(a.delivered))
		}
		tbl.AddRow(a.flow,
			fmt.Sprintf("%d", a.total),
			fmt.Sprintf("%d", a.delivered),
			fmt.Sprintf("%d", a.dropped),
			fmt.Sprintf("%d", a.deflections),
			meanStretch, worst, meanLat)
	}
	return tbl
}

// causeTable breaks down why packets left their encoded path.
func causeTable(js []trace.Journey) *measure.Table {
	counts := make(map[string]int)
	for _, j := range js {
		for _, h := range j.Hops {
			if h.Cause != "" {
				counts[h.Cause]++
			}
		}
	}
	causes := make([]string, 0, len(counts))
	for c := range counts {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	tbl := &measure.Table{
		Title:   "Deflection causes (sampled journeys)",
		Headers: []string{"cause", "hops"},
	}
	for _, c := range causes {
		tbl.AddRow(c, fmt.Sprintf("%d", counts[c]))
	}
	return tbl
}

// reactionTable renders per-milestone latency percentiles across the
// run's reaction chains: how long after the physical link transition
// the switches detected it, the controller heard about it, the first
// recompute landed, the last ingress install finished, and the first
// sampled packet was delivered after that install.
func reactionTable(rs []trace.Reaction) *measure.Table {
	milestones := []struct {
		name string
		get  func(trace.Reaction) time.Duration
	}{
		{"detection", trace.Reaction.DetectionLatency},
		{"notify", trace.Reaction.NotifyLatency},
		{"first reroute", trace.Reaction.RerouteLatency},
		{"last install", trace.Reaction.InstallLatency},
		{"first delivery", trace.Reaction.RecoveryLatency},
	}
	tbl := &measure.Table{
		Title:   fmt.Sprintf("Control-plane reaction latency (%d chains)", len(rs)),
		Headers: []string{"milestone", "direction", "chains", "p50", "p90", "p99", "max"},
	}
	for _, m := range milestones {
		for _, dir := range []string{"fail", "repair"} {
			var lats []time.Duration
			for _, r := range rs {
				if r.Kind != dir {
					continue
				}
				if d := m.get(r); d >= 0 {
					lats = append(lats, d)
				}
			}
			if len(lats) == 0 {
				continue
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			tbl.AddRow(m.name, dir,
				fmt.Sprintf("%d", len(lats)),
				fmtDur(quantile(lats, 0.50)),
				fmtDur(quantile(lats, 0.90)),
				fmtDur(quantile(lats, 0.99)),
				fmtDur(lats[len(lats)-1]))
		}
	}
	return tbl
}

// quantile reads the q-quantile from a sorted slice (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}

// printJourney dumps one journey hop by hop.
func printJourney(stdout io.Writer, j trace.Journey) {
	stretch := ""
	if s := j.Stretch(); s > 0 {
		stretch = fmt.Sprintf(" stretch=%.2f (baseline %d)", s, j.Baseline)
	}
	fmt.Fprintf(stdout, "journey %s->%s %s seq=%d: %s in %s, %d hops, %d deflections%s\n",
		j.Flow.Src, j.Flow.Dst, j.PktKind, j.Seq,
		j.Outcome, fmtDur(j.End-j.Start), j.HopCount, j.Deflections(), stretch)
	for _, h := range j.Hops {
		cause := ""
		if h.Cause != "" {
			cause = fmt.Sprintf("  [%s: encoded port %d]", h.Cause, h.Encoded)
		}
		wait := ""
		if h.QueueWait > 0 {
			wait = fmt.Sprintf("  queued %s", fmtDur(h.QueueWait))
		}
		in := ""
		if h.InPort >= 0 {
			in = fmt.Sprintf("in %d ", h.InPort)
		}
		fmt.Fprintf(stdout, "  %10s  %-8s %sout %d%s%s\n",
			fmtDur(h.At), h.Where, in, h.OutPort, cause, wait)
	}
	if j.Outcome != "delivered" && j.Outcome != "in-flight" {
		fmt.Fprintf(stdout, "  %10s  %s at %s\n", fmtDur(j.End), j.Outcome, j.Where)
	}
}
