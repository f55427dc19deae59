package measure

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMeanAndStdDev(t *testing.T) {
	tests := []struct {
		name     string
		xs       []float64
		wantMean float64
		wantStd  float64
	}{
		{name: "empty", xs: nil, wantMean: 0, wantStd: 0},
		{name: "single", xs: []float64{5}, wantMean: 5, wantStd: 0},
		{name: "constant", xs: []float64{3, 3, 3, 3}, wantMean: 3, wantStd: 0},
		{name: "simple", xs: []float64{2, 4, 4, 4, 5, 5, 7, 9}, wantMean: 5, wantStd: 2.138},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); math.Abs(got-tt.wantMean) > 1e-9 {
				t.Errorf("Mean = %v, want %v", got, tt.wantMean)
			}
			if got := StdDev(tt.xs); math.Abs(got-tt.wantStd) > 1e-3 {
				t.Errorf("StdDev = %v, want %v", got, tt.wantStd)
			}
		})
	}
}

func TestTCritical95(t *testing.T) {
	tests := []struct {
		df   int
		want float64
	}{
		{1, 12.706},
		{29, 2.045}, // the paper's 30-run experiments
		{30, 2.042},
		{100, 1.96},
	}
	for _, tt := range tests {
		if got := TCritical95(tt.df); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("TCritical95(%d) = %v, want %v", tt.df, got, tt.want)
		}
	}
	if !math.IsNaN(TCritical95(0)) {
		t.Error("TCritical95(0) should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{10, 12, 14, 16, 18}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 14 || s.Min != 10 || s.Max != 18 {
		t.Errorf("Summary = %+v", s)
	}
	// sd = sqrt(40/4) = 3.1623; CI = 2.776 * 3.1623 / sqrt(5) = 3.926
	if math.Abs(s.CI95-3.926) > 1e-2 {
		t.Errorf("CI95 = %v, want ~3.926", s.CI95)
	}
	if got := s.String(); !strings.Contains(got, "14.0") {
		t.Errorf("String = %q, want it to mention the mean", got)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.CI95 != 0 {
		t.Errorf("empty Summary = %+v", empty)
	}
}

func TestMbps(t *testing.T) {
	if got := Mbps(125_000_000, time.Second); got != 1000 {
		t.Errorf("Mbps = %v, want 1000", got)
	}
	if got := Mbps(25_000_000, time.Second); got != 200 {
		t.Errorf("Mbps = %v, want 200", got)
	}
	if got := Mbps(100, 0); got != 0 {
		t.Errorf("Mbps with zero window = %v, want 0", got)
	}
}

func TestSeriesWindowAndMean(t *testing.T) {
	s := &Series{Name: "x"}
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	w := s.Window(2*time.Second, 5*time.Second)
	if len(w.Points) != 3 {
		t.Fatalf("window has %d points, want 3", len(w.Points))
	}
	if got := w.Mean(); got != 3 {
		t.Errorf("window mean = %v, want 3", got)
	}
}

func TestThroughputSeries(t *testing.T) {
	// Cumulative bytes: 0, 25MB at 1s, 50MB at 2s → 200 Mb/s each interval.
	cum := []Point{
		{T: 0, V: 0},
		{T: time.Second, V: 25_000_000},
		{T: 2 * time.Second, V: 50_000_000},
	}
	s := ThroughputSeries("tput", cum)
	if len(s.Points) != 2 {
		t.Fatalf("series has %d points, want 2", len(s.Points))
	}
	for _, p := range s.Points {
		if p.V != 200 {
			t.Errorf("throughput at %v = %v, want 200", p.T, p.V)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "Table 1",
		Headers: []string{"Protection mechanism", "Bit length", "Switches"},
	}
	tbl.AddRow("Unprotected", "15", "4")
	tbl.AddRow("Partial protection", "28", "7")
	tbl.AddRow("Full protection", "43", "10")
	out := tbl.String()
	for _, want := range []string{"Table 1", "Unprotected", "28", "Full protection", "10"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, "Unprotected,15,4") {
		t.Errorf("CSV missing row: %s", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 4 {
		t.Errorf("CSV has %d lines, want 4", lines)
	}
}
