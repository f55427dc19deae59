// Package trace is the simulation's causal flight recorder: a Recorder
// attached to a network keeps per-packet journey records and the
// control-plane events of the same virtual timeline in a bounded ring,
// Journeys and Reactions reconstruct paths and reaction chains from a
// record stream, and the exporters write it as JSONL or Perfetto.
package trace

import (
	"math"
	"time"

	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// RecordKind discriminates flight-recorder records. Data-plane kinds
// describe one sampled packet's journey hop by hop; RecCtrl mirrors a
// control-plane event onto the same virtual timeline.
type RecordKind uint8

const (
	// RecInject: an ingress edge stamped the route ID and pushed the
	// packet into the core (journey start).
	RecInject RecordKind = iota + 1
	// RecHop: a core switch chose an output port — Encoded is the
	// modulo residue, OutPort the port actually taken, Cause non-empty
	// when they differ (deflection).
	RecHop
	// RecTx: the packet started transmission on a link after
	// QueueWait of head-of-line blocking.
	RecTx
	// RecDecap: the egress edge delivered the packet (journey end).
	RecDecap
	// RecReencode: a misdelivered packet got a fresh route ID and
	// re-entered the core at the named edge.
	RecReencode
	// RecDrop: the packet was lost (journey end); Cause holds the
	// drop reason.
	RecDrop
	// RecCorrupt: a gray link flipped a bit in flight.
	RecCorrupt
	// RecCtrl: a control-plane event (link_fail, failure_notify,
	// reroute, ingress_install, ...); Event holds the kind.
	RecCtrl
)

// String names the kind for exports and reports.
func (k RecordKind) String() string {
	switch k {
	case RecInject:
		return "inject"
	case RecHop:
		return "hop"
	case RecTx:
		return "tx"
	case RecDecap:
		return "decap"
	case RecReencode:
		return "reencode"
	case RecDrop:
		return "drop"
	case RecCorrupt:
		return "corrupt"
	case RecCtrl:
		return "ctrl"
	default:
		return "unknown"
	}
}

// kindFromName is String's inverse, for JSONL import (0 when unknown).
func kindFromName(s string) RecordKind {
	for k := RecInject; k <= RecCtrl; k++ {
		if k.String() == s {
			return k
		}
	}
	return 0
}

// Record is one flight-recorder entry. All fields are plain values
// copied at record time — the live packet keeps mutating and is pooled.
type Record struct {
	At   time.Duration
	Kind RecordKind

	// Packet identity (data-plane kinds).
	Flow    packet.FlowID
	PktKind packet.Kind
	Seq     uint64

	// Where the record happened: edge/switch name, or link name for
	// tx/corrupt, or the control-plane event's Where.
	Where string

	// Hop detail (RecHop; Encoded/OutPort also used by RecInject and
	// RecReencode for the chosen ingress port).
	InPort  int
	Encoded int // modulo residue the switch computed
	OutPort int // port actually taken
	Cause   string

	// Link detail (RecTx).
	QueueWait time.Duration
	TxTime    time.Duration

	// Packet bookkeeping at record time.
	TTL      int32
	Hops     int
	Baseline int // encoded-path hop count (RecInject only; 0 unknown)

	// Control-plane detail (RecCtrl).
	Event  string
	Detail string
}

// Config parameterises a Recorder.
type Config struct {
	// Rate is the per-flow sampling probability in [0,1]. Sampling is
	// a deterministic hash of the flow identity — direction-agnostic,
	// so a flow's ACK stream is sampled iff its data stream is — never
	// an RNG draw, keeping same-seed runs byte-identical. Rate >= 1
	// samples everything, <= 0 nothing.
	Rate float64
	// Max bounds retained records (DefaultMaxRecords when <= 0); the
	// ring evicts oldest-first, counting evictions in
	// kar_trace_span_evicted_total.
	Max int
}

// DefaultMaxRecords bounds a recorder's ring when Config.Max is unset.
const DefaultMaxRecords = 65536

// Recorder is the causal flight recorder for one world: as its
// simnet.TraceSink it gets per-packet journey records and, through
// CtrlEvent, control-plane records, interleaved on the same virtual
// timeline. An attached sink keeps a world from opening parallel
// windows, so the recorder is unlocked; CtrlEvent fires outside the
// event log's mutex on the simulation goroutine.
type Recorder struct {
	now       func() time.Duration
	threshold uint64 // sample iff flowHash(flow) <= threshold
	max       int
	ring      []Record
	start     int // oldest element once the ring is full
	cEvicted  *telemetry.Counter
}

var _ simnet.TraceSink = (*Recorder)(nil)

// NewRecorder attaches a flight recorder to the network as its trace
// sink, displacing the previous one, if any.
func NewRecorder(net *simnet.Network, cfg Config) *Recorder {
	max := cfg.Max
	if max <= 0 {
		max = DefaultMaxRecords
	}
	r := &Recorder{
		now:       net.Scheduler().Now,
		threshold: sampleThreshold(cfg.Rate),
		max:       max,
		cEvicted:  net.Metrics().Counter("kar_trace_span_evicted_total"),
	}
	net.Metrics().Help("kar_trace_span_evicted_total",
		"Flight-recorder records displaced from the bounded ring.")
	net.SetTraceSink(r)
	return r
}

// sampleThreshold maps a probability to a uint64 comparison bound.
func sampleThreshold(rate float64) uint64 {
	switch {
	case rate >= 1:
		return math.MaxUint64
	case rate <= 0:
		return 0
	default:
		return uint64(rate * float64(math.MaxUint64))
	}
}

// flowHash is FNV-1a over the direction-canonicalised flow identity:
// the lexicographically smaller edge name first, so a flow and its
// reverse (the ACK path) hash identically and sample together.
func flowHash(f packet.FlowID) uint64 {
	a, b := f.Src, f.Dst
	if b < a {
		a, b = b, a
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * prime64
	}
	h = (h ^ '|') * prime64
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * prime64
	}
	for shift := 0; shift < 32; shift += 8 {
		h = (h ^ uint64(f.ID>>shift&0xff)) * prime64
	}
	return h
}

// SampleFlow implements simnet.TraceSink: the ingress edge calls it
// once per injected packet to stamp pkt.Sampled.
func (r *Recorder) SampleFlow(flow packet.FlowID) bool {
	if r.threshold == 0 {
		return false
	}
	return flowHash(flow) <= r.threshold
}

// record appends to the bounded ring.
func (r *Recorder) record(rec Record) {
	if len(r.ring) < r.max {
		r.ring = append(r.ring, rec)
		return
	}
	r.ring[r.start] = rec
	r.start = (r.start + 1) % r.max
	r.cEvicted.Inc()
}

// PacketInject implements simnet.TraceSink.
func (r *Recorder) PacketInject(pkt *packet.Packet, edge string, outPort, baselineHops int) {
	r.record(Record{
		At: r.now(), Kind: RecInject,
		Flow: pkt.Flow, PktKind: pkt.Kind, Seq: pkt.Seq,
		Where: edge, Encoded: outPort, OutPort: outPort,
		TTL: pkt.TTL, Hops: pkt.Hops, Baseline: baselineHops,
	})
}

// PacketHop implements simnet.TraceSink.
func (r *Recorder) PacketHop(pkt *packet.Packet, sw string, inPort, encodedPort, outPort int, cause string) {
	r.record(Record{
		At: r.now(), Kind: RecHop,
		Flow: pkt.Flow, PktKind: pkt.Kind, Seq: pkt.Seq,
		Where: sw, InPort: inPort, Encoded: encodedPort, OutPort: outPort, Cause: cause,
		TTL: pkt.TTL, Hops: pkt.Hops,
	})
}

// PacketTx implements simnet.TraceSink.
func (r *Recorder) PacketTx(pkt *packet.Packet, link string, queueWait, txTime time.Duration) {
	r.record(Record{
		At: r.now(), Kind: RecTx,
		Flow: pkt.Flow, PktKind: pkt.Kind, Seq: pkt.Seq,
		Where: link, QueueWait: queueWait, TxTime: txTime,
		TTL: pkt.TTL, Hops: pkt.Hops,
	})
}

// PacketDecap implements simnet.TraceSink.
func (r *Recorder) PacketDecap(pkt *packet.Packet, edge string) {
	r.record(Record{
		At: r.now(), Kind: RecDecap,
		Flow: pkt.Flow, PktKind: pkt.Kind, Seq: pkt.Seq,
		Where: edge, TTL: pkt.TTL, Hops: pkt.Hops,
	})
}

// PacketReencode implements simnet.TraceSink.
func (r *Recorder) PacketReencode(pkt *packet.Packet, edge string, outPort int) {
	r.record(Record{
		At: r.now(), Kind: RecReencode,
		Flow: pkt.Flow, PktKind: pkt.Kind, Seq: pkt.Seq,
		Where: edge, Encoded: outPort, OutPort: outPort,
		TTL: pkt.TTL, Hops: pkt.Hops,
	})
}

// PacketDrop implements simnet.TraceSink.
func (r *Recorder) PacketDrop(d simnet.Drop) {
	r.record(Record{
		At: d.At, Kind: RecDrop,
		Flow: d.Packet.Flow, PktKind: d.Packet.Kind, Seq: d.Packet.Seq,
		Where: d.Where, Cause: d.Reason.String(),
		TTL: d.Packet.TTL, Hops: d.Packet.Hops,
	})
}

// PacketCorrupt implements simnet.TraceSink.
func (r *Recorder) PacketCorrupt(pkt *packet.Packet, link string) {
	r.record(Record{
		At: r.now(), Kind: RecCorrupt,
		Flow: pkt.Flow, PktKind: pkt.Kind, Seq: pkt.Seq,
		Where: link, TTL: pkt.TTL, Hops: pkt.Hops,
	})
}

// CtrlEvent implements simnet.TraceSink: it mirrors one control-plane
// event into the recorder. Unlike the bounded event ring, the recorder
// sees events the ring later evicts.
func (r *Recorder) CtrlEvent(e telemetry.Event) {
	r.record(Record{
		At: e.At, Kind: RecCtrl,
		Where: e.Where, Event: e.Kind, Detail: e.Detail,
	})
}

// Records returns the retained records, oldest first.
func (r *Recorder) Records() []Record {
	out := make([]Record, 0, len(r.ring))
	out = append(out, r.ring[r.start:]...)
	out = append(out, r.ring[:r.start]...)
	return out
}
