// Package udpsim provides constant-bit-rate (UDP-like) flows over the
// simulated KAR network. Where tcpsim measures the paper's iperf
// throughput figures, udpsim measures the raw routing behaviour
// underneath them: delivery ratio, path stretch (hop counts), one-way
// latency and reordering — the quantities the paper reasons about
// analytically in §3.2 (deflection probabilities, extra hops).
package udpsim

import (
	"time"

	"repro/internal/edge"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Config tunes a CBR flow.
type Config struct {
	// Interval between packets (e.g. 1 ms ≈ 12 Mb/s at 1500 B).
	Interval time.Duration
	// Size is the wire size per packet in bytes.
	Size int
	// Count is the total number of packets to send (0 = until Stop).
	Count int
	// Burst is the number of packets injected per tick (default 1).
	// Bursts keep links saturated between ticks — the packets-per-
	// second benchmarks use it to drive the data plane flat out
	// without scheduling one timer event per packet.
	Burst int
}

// Defaults fills unset fields. A negative interval takes the default
// too: the sender would otherwise re-arm at one virtual instant for
// ever and the run never reach its end.
func (c Config) Defaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	if c.Size == 0 {
		c.Size = 1500
	}
	if c.Burst == 0 {
		c.Burst = 1
	}
	return c
}

// Sender emits CBR packets from an edge.
type Sender struct {
	clock simnet.Clock
	edge  *edge.Edge
	flow  packet.FlowID
	cfg   Config

	sent    int
	stopped bool
	cSent   simnet.DeferredCounter // per-packet, deferred on the source edge's lane
	tickFn  func()                 // cached method value: rescheduling allocates nothing
}

// Stats for the receiver side.
type Stats struct {
	Sent       int
	Received   int
	Reordered  int // arrived with a lower seq than a previously seen one
	DupSeqs    int
	MinHops    int
	MaxHops    int
	TotalHops  int64
	LatencyMin time.Duration // one-way latency extremes; the distribution
	LatencyMax time.Duration // is the kar_udp_latency_us histogram
	LastArrive time.Duration
}

// DeliveryRatio returns received/sent.
func (s Stats) DeliveryRatio() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Received) / float64(s.Sent)
}

// MeanHops returns the average hop count of delivered packets.
func (s Stats) MeanHops() float64 {
	if s.Received == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.Received)
}

// Receiver terminates a CBR flow and records metrics.
type Receiver struct {
	clock   simnet.Clock
	highSeq uint64
	gotAny  bool
	// seen is a duplicate-detection bitmap indexed by sequence number
	// (CBR seqs are dense from 0, so a map would pay hashing and
	// rehash pauses on the packets-per-second hot path for nothing).
	seen  []uint64
	stats Stats

	// Registry-backed counters and the one-way latency histogram.
	// The per-packet received counter and latency histogram are
	// deferred cells on the destination edge's lane; the exception
	// counters stay atomic.
	cReceived  simnet.DeferredCounter
	cReordered *telemetry.Counter
	cDups      *telemetry.Counter
	hLatency   *simnet.DeferredHistogram
}

// NewFlow wires a CBR sender and receiver; the forward route must be
// installed on srcEdge.
func NewFlow(net *simnet.Network, srcEdge, dstEdge *edge.Edge, flow packet.FlowID, cfg Config) (*Sender, *Receiver) {
	cfg = cfg.Defaults()
	reg := net.Metrics()
	f := flow.String()
	s := &Sender{
		clock: net.ClockOf(srcEdge.Node()), edge: srcEdge, flow: flow, cfg: cfg,
		cSent: net.DeferCounter(srcEdge.Node(), reg.Counter("kar_udp_sent_total", "flow", f)),
	}
	s.tickFn = s.tick
	r := &Receiver{
		clock:      net.ClockOf(dstEdge.Node()),
		cReceived:  net.DeferCounter(dstEdge.Node(), reg.Counter("kar_udp_received_total", "flow", f)),
		cReordered: reg.Counter("kar_udp_reordered_total", "flow", f),
		cDups:      reg.Counter("kar_udp_dup_total", "flow", f),
		hLatency:   net.DeferHistogram(dstEdge.Node(), reg.Histogram("kar_udp_latency_us", telemetry.LatencyBucketsUs, "flow", f)),
	}
	dstEdge.Attach(flow, edge.ReceiverFunc(r.onData))
	return s, r
}

// Start begins emission at the current virtual time.
func (s *Sender) Start() { s.tick() }

// Stop halts emission.
func (s *Sender) Stop() { s.stopped = true }

// Sent returns the number of packets emitted.
func (s *Sender) Sent() int { return s.sent }

func (s *Sender) tick() {
	if s.stopped || (s.cfg.Count > 0 && s.sent >= s.cfg.Count) {
		return
	}
	for i := 0; i < s.cfg.Burst; i++ {
		if s.cfg.Count > 0 && s.sent >= s.cfg.Count {
			break
		}
		pkt := s.clock.NewPacket()
		pkt.Flow = s.flow
		pkt.Kind = packet.KindData
		pkt.Seq = uint64(s.sent)
		pkt.Size = s.cfg.Size
		pkt.SentAt = s.clock.Now()
		s.sent++
		s.cSent.Inc()
		if err := s.edge.Inject(pkt); err != nil {
			s.clock.Recycle(pkt)
		}
	}
	s.clock.After(s.cfg.Interval, s.tickFn)
}

// onData terminates the flow: it records stats and, as the packet's
// final owner, recycles it.
func (r *Receiver) onData(pkt *packet.Packet) {
	defer r.clock.Recycle(pkt)
	st := &r.stats
	word, bit := pkt.Seq>>6, uint64(1)<<(pkt.Seq&63)
	if word >= uint64(len(r.seen)) {
		grown := make([]uint64, (word+1)*2)
		copy(grown, r.seen)
		r.seen = grown
	}
	if r.seen[word]&bit != 0 {
		r.cDups.Inc()
		return
	}
	r.seen[word] |= bit
	r.cReceived.Inc()
	st.TotalHops += int64(pkt.Hops)
	first := r.cReceived.Value() == 1
	if first || pkt.Hops < st.MinHops {
		st.MinHops = pkt.Hops
	}
	if pkt.Hops > st.MaxHops {
		st.MaxHops = pkt.Hops
	}
	lat := r.clock.Now() - pkt.SentAt
	if first || lat < st.LatencyMin {
		st.LatencyMin = lat
	}
	if lat > st.LatencyMax {
		st.LatencyMax = lat
	}
	// Whole microseconds keep the histogram sum integral, preserving
	// byte-determinism of merged dumps.
	r.hLatency.Observe(float64(lat / time.Microsecond))
	st.LastArrive = r.clock.Now()
	if r.gotAny && pkt.Seq < r.highSeq {
		r.cReordered.Inc()
	}
	if pkt.Seq > r.highSeq || !r.gotAny {
		r.highSeq = pkt.Seq
	}
	r.gotAny = true
}

// Stats returns a snapshot including the sender's emission count,
// counter fields read back from the registry.
func (r *Receiver) Stats(sender *Sender) Stats {
	st := r.stats
	st.Sent = sender.Sent()
	st.Received = int(r.cReceived.Value())
	st.Reordered = int(r.cReordered.Value())
	st.DupSeqs = int(r.cDups.Value())
	return st
}
