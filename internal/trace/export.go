package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/packet"
)

// RunTrace is one run's flight-recorder output, keyed by the same
// config-derived label the metrics collector uses, so traces and
// metric series line up one-to-one.
type RunTrace struct {
	Run     string
	Records []Record
}

// wireRecord is the JSONL wire form of a Record. Field order is the
// export byte-format: json.Marshal emits struct fields in declaration
// order, so the stream is deterministic for a deterministic record
// sequence. omitempty keeps unsampled fields off the wire.
type wireRecord struct {
	Run       string        `json:"run"`
	At        time.Duration `json:"at_ns"`
	Kind      string        `json:"kind"`
	Src       string        `json:"src,omitempty"`
	Dst       string        `json:"dst,omitempty"`
	FlowID    uint32        `json:"flow_id,omitempty"`
	PktKind   string        `json:"pkt,omitempty"`
	Seq       uint64        `json:"seq,omitempty"`
	Where     string        `json:"where,omitempty"`
	InPort    int           `json:"in_port,omitempty"`
	Encoded   int           `json:"encoded,omitempty"`
	OutPort   int           `json:"out_port,omitempty"`
	Cause     string        `json:"cause,omitempty"`
	QueueWait time.Duration `json:"queue_wait_ns,omitempty"`
	TxTime    time.Duration `json:"tx_ns,omitempty"`
	TTL       int32         `json:"ttl,omitempty"`
	Hops      int           `json:"hops,omitempty"`
	Baseline  int           `json:"baseline,omitempty"`
	Event     string        `json:"event,omitempty"`
	Detail    string        `json:"detail,omitempty"`
}

func toWire(run string, r Record) wireRecord {
	w := wireRecord{
		Run: run, At: r.At, Kind: r.Kind.String(),
		Src: r.Flow.Src, Dst: r.Flow.Dst, FlowID: r.Flow.ID,
		Seq: r.Seq, Where: r.Where,
		InPort: r.InPort, Encoded: r.Encoded, OutPort: r.OutPort,
		Cause: r.Cause, QueueWait: r.QueueWait, TxTime: r.TxTime,
		TTL: r.TTL, Hops: r.Hops, Baseline: r.Baseline,
		Event: r.Event, Detail: r.Detail,
	}
	if r.PktKind != 0 {
		w.PktKind = r.PktKind.String()
	}
	return w
}

func fromWire(w wireRecord) Record {
	r := Record{
		At: w.At, Kind: kindFromName(w.Kind),
		Flow: packet.FlowID{Src: w.Src, Dst: w.Dst, ID: w.FlowID},
		Seq:  w.Seq, Where: w.Where,
		InPort: w.InPort, Encoded: w.Encoded, OutPort: w.OutPort,
		Cause: w.Cause, QueueWait: w.QueueWait, TxTime: w.TxTime,
		TTL: w.TTL, Hops: w.Hops, Baseline: w.Baseline,
		Event: w.Event, Detail: w.Detail,
	}
	switch w.PktKind {
	case "data":
		r.PktKind = packet.KindData
	case "ack":
		r.PktKind = packet.KindAck
	}
	return r
}

// WriteJSONL streams runs as one JSON object per line — the grep- and
// structured export, `karsim trace`'s input. Byte-deterministic: records are
// emitted in recording order and fields in fixed order.
func WriteJSONL(w io.Writer, runs []RunTrace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rt := range runs {
		for _, rec := range rt.Records {
			if err := enc.Encode(toWire(rt.Run, rec)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadJSONL is WriteJSONL's inverse: it regroups lines into runs,
// preserving first-seen run order.
func ReadJSONL(r io.Reader) ([]RunTrace, error) {
	var (
		order []string
		byRun = make(map[string]*RunTrace)
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var w wireRecord
		if err := json.Unmarshal(b, &w); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", line, err)
		}
		rt := byRun[w.Run]
		if rt == nil {
			rt = &RunTrace{Run: w.Run}
			byRun[w.Run] = rt
			order = append(order, w.Run)
		}
		rt.Records = append(rt.Records, fromWire(w))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]RunTrace, len(order))
	for i, run := range order {
		out[i] = *byRun[run]
	}
	return out, nil
}

// traceEvent is one Chrome trace-event object (the Perfetto-loadable
// JSON schema). Ts/Dur are virtual-time microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`   // instant scope
	Cat  string         `json:"cat,omitempty"` // event category
	Args map[string]any `json:"args,omitempty"`
}

func usec(d time.Duration) float64 { return float64(d) / 1e3 }

// ctrlTid is the per-run control-plane track; flow tracks follow.
const ctrlTid = 1

// WritePerfetto renders runs as a Chrome trace-event JSON document
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: one
// process per run, the control-plane timeline on thread 1 (reaction
// chains as spans, raw events as instants), and each sampled flow on
// its own thread — journey spans with per-hop child slices beneath
// them. Deterministic: runs, flows and args are emitted in sorted
// order, timestamps are exact virtual-time microseconds.
func WritePerfetto(w io.Writer, runs []RunTrace) error {
	var evs []traceEvent

	sorted := append([]RunTrace(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Run < sorted[j].Run })

	for pi, rt := range sorted {
		pid := pi + 1
		evs = append(evs, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": rt.Run},
		})
		evs = append(evs, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: ctrlTid,
			Args: map[string]any{"name": "control-plane"},
		})

		// Control-plane instants + reaction-chain spans.
		for _, rec := range rt.Records {
			if rec.Kind != RecCtrl {
				continue
			}
			evs = append(evs, traceEvent{
				Name: rec.Event, Ph: "i", Ts: usec(rec.At),
				Pid: pid, Tid: ctrlTid, S: "t", Cat: "ctrl",
				Args: ctrlArgs(rec),
			})
		}
		for _, r := range Reactions(rt.Records) {
			end := r.InstallAt
			if r.FirstDelived > end {
				end = r.FirstDelived
			}
			if end < 0 {
				if r.DetectedAt < 0 && r.NotifiedAt < 0 {
					continue // nothing reacted; the instant already shows the flip
				}
				end = maxDur(r.DetectedAt, r.NotifiedAt, r.RerouteAt)
			}
			args := map[string]any{"link": r.Link, "reroutes": r.Reroutes, "installs": r.Installs}
			if r.DetectedAt >= 0 {
				args["detect_us"] = usec(r.DetectionLatency())
			}
			if r.InstallAt >= 0 {
				args["install_us"] = usec(r.InstallLatency())
			}
			if r.FirstDelived >= 0 {
				args["recovery_us"] = usec(r.RecoveryLatency())
			}
			evs = append(evs, traceEvent{
				Name: "reaction:" + r.Kind + " " + r.Link, Ph: "X",
				Ts: usec(r.At), Dur: usec(end - r.At),
				Pid: pid, Tid: ctrlTid, Cat: "reaction", Args: args,
			})
		}

		// One thread per sampled flow, in sorted flow order.
		type flowKey struct {
			src, dst string
			id       uint32
		}
		flows := make(map[flowKey][]Record)
		var fkeys []flowKey
		for _, rec := range rt.Records {
			if rec.Kind == RecCtrl {
				continue
			}
			k := flowKey{rec.Flow.Src, rec.Flow.Dst, rec.Flow.ID}
			if _, ok := flows[k]; !ok {
				fkeys = append(fkeys, k)
			}
			flows[k] = append(flows[k], rec)
		}
		sort.Slice(fkeys, func(i, j int) bool {
			a, b := fkeys[i], fkeys[j]
			if a.src != b.src {
				return a.src < b.src
			}
			if a.dst != b.dst {
				return a.dst < b.dst
			}
			return a.id < b.id
		})

		for fi, k := range fkeys {
			tid := ctrlTid + 1 + fi
			evs = append(evs, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("flow %s->%s/%d", k.src, k.dst, k.id)},
			})
			for _, j := range Journeys(flows[k]) {
				evs = append(evs, journeyEvents(j, pid, tid)...)
			}
		}
	}

	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: evs, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// journeyEvents renders one journey: a parent span for the whole
// journey plus one child slice per hop (each hop lasting until the
// next hop's instant), and a drop instant when the journey ended in
// loss.
func journeyEvents(j Journey, pid, tid int) []traceEvent {
	name := fmt.Sprintf("%s seq=%d", j.PktKind, j.Seq)
	args := map[string]any{
		"outcome": j.Outcome, "hops": j.HopCount,
		"deflections": j.Deflections(),
	}
	if j.Baseline > 0 {
		args["baseline"] = j.Baseline
		if s := j.Stretch(); s > 0 {
			args["stretch"] = s
		}
	}
	out := []traceEvent{{
		Name: name, Ph: "X", Ts: usec(j.Start), Dur: usec(j.End - j.Start),
		Pid: pid, Tid: tid, Cat: "journey", Args: args,
	}}
	for i, h := range j.Hops {
		end := j.End
		if i+1 < len(j.Hops) {
			end = j.Hops[i+1].At
		}
		hargs := map[string]any{"out_port": h.OutPort}
		hname := h.Where
		if h.Cause != "" {
			hname = h.Where + " [" + h.Cause + "]"
			hargs["cause"] = h.Cause
			hargs["encoded_port"] = h.Encoded
		}
		if h.InPort >= 0 {
			hargs["in_port"] = h.InPort
		}
		if h.QueueWait > 0 {
			hargs["queue_wait_us"] = usec(h.QueueWait)
		}
		out = append(out, traceEvent{
			Name: hname, Ph: "X", Ts: usec(h.At), Dur: usec(end - h.At),
			Pid: pid, Tid: tid, Cat: "hop", Args: hargs,
		})
	}
	if j.Outcome != "delivered" && j.Outcome != "in-flight" {
		out = append(out, traceEvent{
			Name: j.Outcome + " at " + j.Where, Ph: "i", Ts: usec(j.End),
			Pid: pid, Tid: tid, S: "t", Cat: "drop",
		})
	}
	return out
}

func ctrlArgs(rec Record) map[string]any {
	args := map[string]any{}
	if rec.Where != "" {
		args["where"] = rec.Where
	}
	if rec.Detail != "" {
		args["detail"] = rec.Detail
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

func maxDur(ds ...time.Duration) time.Duration {
	m := ds[0]
	for _, d := range ds[1:] {
		if d > m {
			m = d
		}
	}
	return m
}
