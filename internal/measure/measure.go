// Package measure provides the measurement toolkit for KAR
// experiments: time series sampled on the virtual clock, summary
// statistics with Student-t 95% confidence intervals (the paper's
// Fig. 5/7 error bars are 95% CIs over 30 iperf runs), and plain-text
// rendering of the tables and series the paper reports.
package measure

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Point is one time-series sample.
type Point struct {
	T time.Duration
	V float64
}

// Series is an ordered time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Mean returns the mean sample value (0 for an empty series), summed
// in sample order as Mean sums a slice.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Window returns the sub-series with from <= T < to.
func (s *Series) Window(from, to time.Duration) *Series {
	out := &Series{Name: s.Name}
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// Mean of a sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// tCritical95 holds two-sided 95% Student-t critical values for
// degrees of freedom 1..30; beyond 30 the normal approximation 1.96 is
// used (the paper's 30-run experiments sit at df=29: 2.045).
var tCritical95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% t critical value for the given
// degrees of freedom.
func TCritical95(df int) float64 {
	switch {
	case df <= 0:
		return math.NaN()
	case df <= len(tCritical95):
		return tCritical95[df-1]
	default:
		return 1.96
	}
}

// Summary describes a sample with its 95% confidence interval.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64 // half-width: mean ± CI95
	Min    float64
	Max    float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	if len(xs) >= 2 {
		s.CI95 = TCritical95(len(xs)-1) * s.StdDev / math.Sqrt(float64(len(xs)))
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%.1f ± %.1f (n=%d, sd=%.1f)", s.Mean, s.CI95, s.N, s.StdDev)
}

// Mbps converts a byte delta over a window to megabits per second.
func Mbps(bytes int64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(bytes*8) / window.Seconds() / 1e6
}

// ThroughputSeries converts cumulative byte-counter samples into an
// interval-throughput series in Mb/s: point i reports the rate over
// (t[i-1], t[i]].
func ThroughputSeries(name string, cumulative []Point) *Series {
	out := &Series{Name: name}
	for i := 1; i < len(cumulative); i++ {
		dt := cumulative[i].T - cumulative[i-1].T
		db := cumulative[i].V - cumulative[i-1].V
		out.Add(cumulative[i].T, Mbps(int64(db), dt))
	}
	return out
}

// Table is a plain-text table in the paper's reporting style.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoting is not
// needed for the numeric/identifier cells experiments emit).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteDocument writes v as a result document: JSON, two-space indent,
// trailing newline. It is the one encoder of scenario verdicts and
// verify reports, so the bytes `karsim -verdict-json`/`-verify-json`
// write and the bytes the serve daemon returns for the same spec and
// seed are identical by construction.
func WriteDocument(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
