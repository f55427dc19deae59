package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Clocks a metric can be read on. Simulated statistics are virtual and
// repeat exactly for the same inputs; host-time metrics carry the
// sandbox's noise; counted metrics are counts made by the Go runtime
// or the harness.
const (
	hostTime    = "host"
	virtualTime = "virtual"
	counted     = "count"
)

type runOptions struct {
	seed    int64
	seconds time.Duration
	trace   bool
	toy     bool // toy-sized workloads and kernels: the package's own tests
	outDir  string
}

// metric is one reported number: for a timed metric the median over
// reps (or jobs), with the quartiles and sample count beside it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	P25   float64 `json:"p25"`
	P75   float64 `json:"p75"`
	N     int     `json:"n"`
	Clock string  `json:"clock"`
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"sim_digest"`
	Golden    string             `json:"golden_match"` // true, false, or n/a off the default seed
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]*metric `json:"metrics"`
	TraceFile string             `json:"trace_file,omitempty"`
	// HostSpeed is how fast the host ran during the timed windows, as a
	// share of the reference speed host-time metrics are scaled to:
	// dividing a reported time by it gives the time as measured.
	HostSpeed hostSpeed `json:"host_speed"`

	units map[string]string
}

func newResult(workload string, opts runOptions) *result {
	r := &result{Workload: workload, Seed: opts.seed, Trace: opts.trace, Metrics: make(map[string]*metric)}
	specs := endToEndMetrics
	if opts.trace {
		specs = perLayerMetrics
	}
	r.units = make(map[string]string, len(specs))
	for _, s := range specs {
		r.units[s.name] = s.unit
	}
	return r
}

// put records a metric as the median of its per-rep samples.
func (r *result) put(name, clock string, samples []float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	q1, q2, q3 := quartiles(samples)
	r.Metrics[name] = &metric{Value: q2, Unit: unit, P25: q1, P75: q3, N: len(samples), Clock: clock}
}

func (r *result) putOne(name, clock string, v float64) { r.put(name, clock, []float64{v}) }

// putOf records a statistic other than the median (a percentile, a
// rate) of n samples.
func (r *result) putOf(name, clock string, v float64, n int) {
	r.putOne(name, clock, v)
	r.Metrics[name].N = n
}

func (r *result) fail(err error) {
	r.Attempted++
	r.Failed++
	r.Errors = append(r.Errors, err.Error())
}

func (r *result) absorb(rs *repSet) {
	r.Attempted += rs.attempted
	r.Failed += rs.failed
	r.Errors = append(r.Errors, rs.errs...)
}

// seal fills every declared metric the workload left untouched with 0
// (a layer that did no work here), rejects non-finite values, and
// fixes the verdict.
func (r *result) seal(golden map[string]string, defaultSeed bool) {
	for name, unit := range r.units {
		if _, ok := r.Metrics[name]; !ok {
			r.Metrics[name] = &metric{Unit: unit, Clock: counted}
		}
	}
	for name, m := range r.Metrics {
		if !finite(m.Value) || !finite(m.P25) || !finite(m.P75) {
			r.Errors = append(r.Errors, fmt.Sprintf("metric %s is not finite", name))
			r.Failed++
			*m = metric{Unit: m.Unit, Clock: m.Clock}
		}
	}
	if r.Attempted == 0 {
		r.Attempted, r.Failed = 1, 1
		r.Errors = append(r.Errors, "nothing was attempted")
	}
	r.Correct = r.Failed == 0
	r.Golden = "n/a"
	if want, ok := golden[r.Workload]; ok && defaultSeed && r.Digest != "" {
		r.Golden = fmt.Sprint(want == r.Digest)
	}
}

// print writes the human-readable report: every metric by name with
// its unit, the clock it was read on, quartiles and sample count.
func (r *result) print(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s\n", r.Workload, r.Seed, mode)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		switch {
		case m.N > 1 && m.P25 != m.P75:
			fmt.Fprintf(w, "  %-34s %16.4f %-8s [%s]  p25=%.4f p75=%.4f n=%d\n", n, m.Value, m.Unit, m.Clock, m.P25, m.P75, m.N)
		case m.N > 1:
			fmt.Fprintf(w, "  %-34s %16.4f %-8s [%s]  n=%d\n", n, m.Value, m.Unit, m.Clock, m.N)
		default:
			fmt.Fprintf(w, "  %-34s %16.4f %-8s [%s]\n", n, m.Value, m.Unit, m.Clock)
		}
	}
	if r.HostSpeed.Wall > 0 {
		fmt.Fprintf(w, "  host speed while measuring: wall %.3f, cpu %.3f of the reference (host-time metrics are scaled to the reference)\n",
			r.HostSpeed.Wall, r.HostSpeed.CPU)
	}
	fmt.Fprintf(w, "  failed_share=%.6f (%d of %d ops)  sim_digest=%s  golden_match=%s\n",
		ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted, r.Digest, r.Golden)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
}

// contractLine is the last line of standard output the driver reads.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for n, m := range r.Metrics {
		out.Metrics[n] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	return string(b)
}
