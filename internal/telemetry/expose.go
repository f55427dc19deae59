package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Families are sorted by name and
// series by label set, so the output is byte-deterministic for a given
// registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(s.labels, "", 0), s.value)
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(s.labels, "", 0), formatFloat(s.fvalue))
			case kindHistogram:
				err = writePromHistogram(w, f, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, f familySnap, s seriesSnap) error {
	var cum int64
	for i, b := range f.bounds {
		cum += s.counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(s.labels, "le", b), cum); err != nil {
			return err
		}
	}
	cum += s.counts[len(f.bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(s.labels, "le", math.Inf(1)), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, promLabels(s.labels, "", 0), formatFloat(s.fvalue)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, promLabels(s.labels, "", 0), s.value)
	return err
}

// promLabels renders a label set, optionally appending an le bucket
// bound, as {k="v",...}; empty sets render as nothing.
func promLabels(ls []Label, leKey string, le float64) string {
	if len(ls) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if leKey != "" {
		if len(ls) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		if math.IsInf(le, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatFloat(le))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// The exposition format (version 0.0.4) escapes label values as
// backslash, double quote and line feed, and HELP text as backslash
// and line feed only (quotes are legal there). Single-pass replacers:
// the sequential ReplaceAll chain this replaces walked the string three
// times, and HELP text was not escaped at all — a help string (or
// label) containing a newline produced an unparseable dump.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }
func escapeHelp(v string) string  { return helpEscaper.Replace(v) }

// formatFloat renders floats the shortest round-trippable way; the
// registry's integral observations render as plain integers.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SeriesSnapshot is one exported metric series.
type SeriesSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramSnapshot is one exported histogram series.
type HistogramSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Bounds []float64         `json:"bounds"`
	Counts []int64           `json:"counts"` // per-bucket; last is +Inf
	Count  int64             `json:"count"`
	Sum    float64           `json:"sum"`
	Median float64           `json:"p50"`
	P99    float64           `json:"p99"`
}

// Snapshot is the JSON-exportable registry state, sorted by name and
// label set.
type Snapshot struct {
	Counters   []SeriesSnapshot    `json:"counters,omitempty"`
	Gauges     []SeriesSnapshot    `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot freezes the registry's state.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.snapshotFamilies() {
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				snap.Counters = append(snap.Counters, SeriesSnapshot{
					Name: f.name, Labels: labelMap(s.labels), Value: float64(s.value),
				})
			case kindGauge:
				snap.Gauges = append(snap.Gauges, SeriesSnapshot{
					Name: f.name, Labels: labelMap(s.labels), Value: s.fvalue,
				})
			case kindHistogram:
				h := &Histogram{bounds: f.bounds, counts: s.counts, count: s.value, sum: s.fvalue}
				snap.Histograms = append(snap.Histograms, HistogramSnapshot{
					Name: f.name, Labels: labelMap(s.labels),
					Bounds: f.bounds, Counts: s.counts, Count: s.value, Sum: s.fvalue,
					Median: nanToZero(h.Quantile(0.5)), P99: nanToZero(h.Quantile(0.99)),
				})
			}
		}
	}
	return snap
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
