package udpsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"repro/internal/edge"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Arrival selects the arrival process of a FlowSet.
type Arrival int

const (
	// ArrivalPoisson superposes the set's flows into one Poisson
	// process per src/dst pair: exponential inter-arrival times at the
	// pair's aggregate rate, each packet assigned to a uniformly
	// chosen flow. This is exactly the superposition of N independent
	// per-flow Poisson processes, without N timers.
	ArrivalPoisson Arrival = iota
	// ArrivalOnOff emits flow bursts: exponential gaps between bursts,
	// a uniformly chosen flow per burst, and a burst length drawn with
	// mean BurstMean — the burst-level superposition of on-off
	// sources.
	ArrivalOnOff
)

func (a Arrival) String() string {
	switch a {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalOnOff:
		return "onoff"
	default:
		return fmt.Sprintf("Arrival(%d)", int(a))
	}
}

// ParseArrival maps the CLI names onto Arrival values.
func ParseArrival(s string) (Arrival, error) {
	switch s {
	case "", "poisson":
		return ArrivalPoisson, nil
	case "onoff", "on-off":
		return ArrivalOnOff, nil
	default:
		return 0, fmt.Errorf("udpsim: unknown arrival process %q (want poisson or onoff)", s)
	}
}

// Pair is one src→dst direction a FlowSet drives traffic over. The
// forward route must be installed on Src before Start.
type Pair struct {
	Src *edge.Edge
	Dst *edge.Edge
}

// SetConfig declares an entire population of flows in one block —
// 10^5–10^6 logical flows cost a few flat arrays and one pump per
// pair, never a Go object per flow.
type SetConfig struct {
	// Name labels the set's aggregate metrics (kar_flowset_*{set=Name}).
	Name string
	// Flows is the total number of logical flows, split evenly across
	// the pairs.
	Flows int
	// Rate is the mean per-flow packet rate in packets per second.
	Rate float64
	// Size is the wire size per packet in bytes (default 1500).
	Size int
	// Arrival selects the arrival process.
	Arrival Arrival
	// BurstMean is the mean packets per burst for ArrivalOnOff
	// (default 10; ignored for Poisson).
	BurstMean float64
	// Seed drives the per-pair RNGs. Pair i uses Seed + i*9973, so
	// draw sequences are stable regardless of shard or worker count.
	Seed int64
	// Until stops injection at this virtual time (0: never).
	Until time.Duration
}

func (c SetConfig) defaults() SetConfig {
	if c.Name == "" {
		c.Name = "flows"
	}
	if c.Size == 0 {
		c.Size = 1500
	}
	if c.Rate == 0 {
		c.Rate = 1
	}
	if c.BurstMean < 1 {
		c.BurstMean = 10
	}
	return c
}

// FlowSet drives a declared flow population over a network. Per-flow
// state is a sent count in the flow's pump (one byte while every flow
// of the pair has sent fewer than 255 packets, four after) and a
// delivered bit in one flat array of words;
// per-pair pumps run on their source edge's shard clock, so draws and
// emissions are deterministic for any shard count; per-destination
// receivers keep lane-local aggregates that Stats merges in sorted
// name order. The set's registry series are shared, so the per-packet
// ones are incremented through lane-owned deferred cells — one sent
// cell per pump, one received/hops/latency set per receiver — and the
// set itself holds only the backing counters, for Stats.
type FlowSet struct {
	cfg   SetConfig
	pumps []*pairPump
	rcvs  map[string]*setReceiver

	// delivered holds one bit per flow: a packet of it was delivered.
	// Each pair's flows take a range of whole words (flowSpan.bits), so
	// receivers on different lanes never write one word.
	delivered []uint64

	cSent     *telemetry.Counter
	cReceived *telemetry.Counter
	cNoRoute  *telemetry.Counter
}

// pairPump emits one pair's aggregate arrival process. It never
// allocates per flow: the pair's flows are the flow IDs [flowBase,
// flowBase+nFlows), and the pump counts their packets in sent, one
// byte per flow. The first flow to reach 255 widens the pair's counts
// into wide, four bytes per flow, and frees sent; only the pump
// touches either, on its source's lane.
type pairPump struct {
	set       *FlowSet
	src       *edge.Edge
	srcName   string
	dstName   string
	clock     simnet.Clock
	rng       *rand.Rand
	flowBase  uint32
	nFlows    int
	meanGapNs float64
	tickFn    func()
	cSent     simnet.DeferredCounter
	sent      []uint8  // packets emitted, by flow ID less flowBase; nil once wide
	wide      []uint32 // the same counts once one of them reached 255; nil before
}

// flowSpan is one pair's flows as its receiver sees them: the flow IDs
// [base, base+n) and their delivered bits, bit i of the span for flow
// base+i.
type flowSpan struct {
	base, n uint32
	bits    []uint64
}

// setReceiver terminates every set flow addressed to one destination
// edge. Its plain fields are only touched on that edge's shard lane.
type setReceiver struct {
	set *FlowSet
	// spans are the pairs the receiver ends, in ascending flow order;
	// a receiver of one pair, the common case, keeps its span in one.
	spans      []flowSpan
	one        [1]flowSpan
	clock      simnet.Clock
	received   int64
	totalHops  int64
	minHops    int
	maxHops    int
	lastArrive time.Duration

	cReceived simnet.DeferredCounter
	hLatency  *simnet.DeferredHistogram
	hHops     *simnet.DeferredHistogram
}

// NewFlowSet declares cfg.Flows logical flows over the given pairs
// and wires pumps and receivers. Flow IDs are global indices assigned
// pair-major, so the mapping is deterministic in (pairs, cfg) alone.
func NewFlowSet(net *simnet.Network, pairs []Pair, cfg SetConfig) (*FlowSet, error) {
	cfg = cfg.defaults()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("udpsim: flow set %q has no pairs", cfg.Name)
	}
	if cfg.Flows < len(pairs) {
		return nil, fmt.Errorf("udpsim: flow set %q: %d flows over %d pairs leaves idle pairs",
			cfg.Name, cfg.Flows, len(pairs))
	}
	reg := net.Metrics()
	reg.Help("kar_flowset_sent_total", "Packets emitted by a declared flow population.")
	reg.Help("kar_flowset_received_total", "Packets delivered to a flow population's receivers.")
	reg.Help("kar_flowset_noroute_total", "Flow-set injections refused for want of an installed route.")
	reg.Help("kar_flowset_latency_us", "One-way delivery latency across a flow population (µs).")
	reg.Help("kar_flowset_hops", "Hop counts of delivered flow-population packets.")
	perPair := cfg.Flows / len(pairs)
	extra := cfg.Flows % len(pairs)
	flowsOf := func(i int) int {
		if i < extra {
			return perPair + 1
		}
		return perPair
	}
	words := 0
	for i := range pairs {
		words += (flowsOf(i) + 63) >> 6
	}
	fs := &FlowSet{
		cfg:       cfg,
		rcvs:      make(map[string]*setReceiver),
		delivered: make([]uint64, words),
		cSent:     reg.Counter("kar_flowset_sent_total", "set", cfg.Name),
		cReceived: reg.Counter("kar_flowset_received_total", "set", cfg.Name),
		cNoRoute:  reg.Counter("kar_flowset_noroute_total", "set", cfg.Name),
	}
	hLatency := reg.Histogram("kar_flowset_latency_us", telemetry.LatencyBucketsUs, "set", cfg.Name)
	hHops := reg.Histogram("kar_flowset_hops", telemetry.HopBuckets, "set", cfg.Name)

	base := uint32(0)
	bitsLeft := fs.delivered
	for i, p := range pairs {
		n := flowsOf(i)
		w := (n + 63) >> 6
		span := flowSpan{base: base, n: uint32(n), bits: bitsLeft[:w:w]}
		bitsLeft = bitsLeft[w:]
		pump := &pairPump{
			set:      fs,
			src:      p.Src,
			srcName:  p.Src.Node().Name(),
			dstName:  p.Dst.Node().Name(),
			clock:    net.ClockOf(p.Src.Node()),
			rng:      xrand.New(cfg.Seed + int64(i)*9973),
			flowBase: base,
			nFlows:   n,
			sent:     make([]uint8, n),
			cSent:    net.DeferCounter(p.Src.Node(), fs.cSent),
		}
		pump.tickFn = pump.tick
		// Aggregate pair rate: nFlows * Rate packets/s for Poisson;
		// on-off spaces bursts of BurstMean packets at the same mean
		// packet rate.
		gap := 1e9 / (cfg.Rate * float64(n))
		if cfg.Arrival == ArrivalOnOff {
			gap *= cfg.BurstMean
		}
		pump.meanGapNs = gap
		fs.pumps = append(fs.pumps, pump)
		base += uint32(n)

		dst := p.Dst.Node().Name()
		r, ok := fs.rcvs[dst]
		if !ok {
			r = &setReceiver{
				set:       fs,
				clock:     net.ClockOf(p.Dst.Node()),
				cReceived: net.DeferCounter(p.Dst.Node(), fs.cReceived),
				hLatency:  net.DeferHistogram(p.Dst.Node(), hLatency),
				hHops:     net.DeferHistogram(p.Dst.Node(), hHops),
			}
			r.spans = r.one[:0]
			fs.rcvs[dst] = r
			p.Dst.AttachDefault(edge.ReceiverFunc(r.onData))
		}
		r.spans = append(r.spans, span)
	}
	return fs, nil
}

// Start schedules every pump's first arrival (each pair's phase is an
// independent exponential draw, so pairs do not fire in lockstep).
func (fs *FlowSet) Start() {
	for _, p := range fs.pumps {
		p.clock.After(p.nextGap(), p.tickFn)
	}
}

func (p *pairPump) nextGap() time.Duration {
	d := time.Duration(p.rng.ExpFloat64() * p.meanGapNs)
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}

func (p *pairPump) tick() {
	fs := p.set
	if fs.cfg.Until > 0 && p.clock.Now() >= fs.cfg.Until {
		return
	}
	count := 1
	if fs.cfg.Arrival == ArrivalOnOff {
		count = 1 + int(p.rng.ExpFloat64()*(fs.cfg.BurstMean-1))
	}
	flow := p.flowBase + uint32(p.rng.Intn(p.nFlows))
	for i := 0; i < count; i++ {
		pkt := p.clock.NewPacket()
		pkt.Flow = packet.FlowID{Src: p.srcName, Dst: p.dstName, ID: flow}
		pkt.Kind = packet.KindData
		pkt.Seq = p.nextSeq(flow - p.flowBase)
		pkt.Size = fs.cfg.Size
		pkt.SentAt = p.clock.Now()
		p.cSent.Inc()
		if err := p.src.Inject(pkt); err != nil {
			fs.cNoRoute.Inc()
			p.clock.Recycle(pkt)
		}
	}
	p.clock.After(p.nextGap(), p.tickFn)
}

// nextSeq counts one more packet of the pair's i-th flow and returns
// the number sent before it.
func (p *pairPump) nextSeq(i uint32) uint64 {
	if p.wide == nil {
		if n := p.sent[i]; n < math.MaxUint8 {
			p.sent[i] = n + 1
			return uint64(n)
		}
		p.wide = make([]uint32, len(p.sent))
		for j, n := range p.sent {
			p.wide[j] = uint32(n)
		}
		p.sent = nil
	}
	n := p.wide[i]
	p.wide[i] = n + 1
	return uint64(n)
}

// activeFlows counts the pair's flows that have sent a packet.
func (p *pairPump) activeFlows() int {
	active := 0
	for _, n := range p.sent {
		if n > 0 {
			active++
		}
	}
	for _, n := range p.wide {
		if n > 0 {
			active++
		}
	}
	return active
}

// onData terminates a set packet: the flow's delivered bit plus
// lane-local aggregates. Duplicate sequence detection is deliberately
// skipped — a per-flow sequence bitmap would dominate memory at 10^6
// flows.
func (r *setReceiver) onData(pkt *packet.Packet) {
	defer r.clock.Recycle(pkt)
	r.markDelivered(pkt.Flow.ID)
	r.received++
	r.totalHops += int64(pkt.Hops)
	if r.received == 1 || pkt.Hops < r.minHops {
		r.minHops = pkt.Hops
	}
	if pkt.Hops > r.maxHops {
		r.maxHops = pkt.Hops
	}
	if now := r.clock.Now(); now > r.lastArrive {
		r.lastArrive = now
	}
	r.cReceived.Inc()
	r.hHops.Observe(float64(pkt.Hops))
	if pkt.SentAt > 0 {
		// Whole microseconds keep histogram sums integral and dumps
		// byte-identical across shard and worker counts.
		r.hLatency.Observe(float64((r.clock.Now() - pkt.SentAt) / time.Microsecond))
	}
}

// markDelivered sets flow id's delivered bit, found among the
// receiver's own spans by bisection (a flow of no span of its own sets
// nothing).
func (r *setReceiver) markDelivered(id uint32) {
	spans := r.spans
	lo, hi := 0, len(spans)
	for hi-lo > 1 {
		if m := int(uint(lo+hi) >> 1); spans[m].base <= id {
			lo = m
		} else {
			hi = m
		}
	}
	sp := &spans[lo]
	if off := id - sp.base; id >= sp.base && off < sp.n {
		sp.bits[off>>6] |= 1 << (off & 63)
	}
}

// SetStats aggregates a flow population after a run.
type SetStats struct {
	Flows          int
	ActiveFlows    int // flows that emitted at least one packet
	DeliveredFlows int // flows with at least one delivery
	Sent           int64
	Received       int64
	NoRoute        int64
	MinHops        int
	MaxHops        int
	TotalHops      int64
	LastArrive     time.Duration
}

// DeliveryRatio returns received/sent.
func (s SetStats) DeliveryRatio() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Received) / float64(s.Sent)
}

// MeanHops returns the average hop count of delivered packets.
func (s SetStats) MeanHops() float64 {
	if s.Received == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.Received)
}

// Stats merges every receiver's lane-local aggregates (in sorted
// destination order) with the per-flow counts and bits. Call it only
// when the network is quiescent — between RunUntil calls, not from
// simulation callbacks.
func (fs *FlowSet) Stats() SetStats {
	st := SetStats{
		Flows:    fs.cfg.Flows,
		Sent:     fs.cSent.Value(),
		Received: fs.cReceived.Value(),
		NoRoute:  fs.cNoRoute.Value(),
	}
	// Not yet folded shares of the per-lane cells; each pump's flows.
	for _, p := range fs.pumps {
		st.Sent += p.cSent.Pending()
		st.ActiveFlows += p.activeFlows()
	}
	for _, r := range fs.rcvs {
		st.Received += r.cReceived.Pending()
	}
	for _, w := range fs.delivered {
		st.DeliveredFlows += bits.OnesCount64(w)
	}
	dsts := make([]string, 0, len(fs.rcvs))
	for d := range fs.rcvs {
		dsts = append(dsts, d)
	}
	sort.Strings(dsts)
	first := true
	for _, d := range dsts {
		r := fs.rcvs[d]
		if r.received == 0 {
			continue
		}
		if first || r.minHops < st.MinHops {
			st.MinHops = r.minHops
		}
		first = false
		if r.maxHops > st.MaxHops {
			st.MaxHops = r.maxHops
		}
		st.TotalHops += r.totalHops
		if r.lastArrive > st.LastArrive {
			st.LastArrive = r.lastArrive
		}
	}
	return st
}
