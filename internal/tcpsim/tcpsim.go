// Package tcpsim implements a simplified TCP Reno/NewReno sender and
// receiver over the simulated KAR network, replacing the paper's iperf
// measurements. The figures of §3 measure how deflection-induced
// packet reordering and path stretch depress TCP throughput;
// Reno's duplicate-ACK machinery — fast retransmit on three dup-ACKs,
// window halving, RTO stalls — is precisely the mechanism that turns
// reordering into throughput loss, so the paper's qualitative shapes
// emerge from first principles here.
//
// Implemented: slow start, congestion avoidance (AIMD), fast
// retransmit + NewReno fast recovery with partial-ACK retransmission,
// RTO with exponential backoff, and RFC 6298 RTT estimation under
// Karn's rule. Deliberately not modelled: SACK, delayed ACKs, window
// scaling negotiation (the receiver window is unbounded; cwnd is
// capped by Config.MaxCwnd).
package tcpsim

import (
	"time"

	"repro/internal/edge"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/telemetry"
)

// Config tunes a TCP flow. The zero value is usable via Defaults.
type Config struct {
	// MSS is the payload bytes per segment.
	MSS int
	// HeaderBytes is the per-packet overhead added to MSS on the wire
	// (IP + TCP + the KAR shim).
	HeaderBytes int
	// AckBytes is the wire size of a pure ACK.
	AckBytes int
	// InitialCwnd is the initial congestion window in segments.
	InitialCwnd float64
	// MaxCwnd caps the congestion window in segments (stands in for
	// the receiver window).
	MaxCwnd float64
	// MinRTO and MaxRTO clamp the retransmission timeout.
	MinRTO time.Duration
	MaxRTO time.Duration
	// DupAckThreshold triggers fast retransmit (3 per RFC 5681).
	DupAckThreshold int
	// DisableUndo turns off DSACK-based restoration of spurious
	// window reductions (for strict-Reno ablations).
	DisableUndo bool
	// MaxDupAckThreshold caps adaptive reordering detection: when
	// duplicate ACKs resolve without a retransmission (the "hole"
	// filled itself, so the dups were reordering, not loss), the
	// effective threshold is raised to just above the observed
	// reordering extent — the behaviour of Linux's tcp_reordering
	// adaptation, capped at 300 like Linux, which the paper's Mininet endpoints ran. Set to
	// DupAckThreshold to disable adaptation (strict Reno).
	MaxDupAckThreshold int
}

// Defaults fills unset fields with standard values.
func (c Config) Defaults() Config {
	if c.MSS == 0 {
		c.MSS = 1400
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 60 // IP + TCP + KAR shim
	}
	if c.AckBytes == 0 {
		c.AckBytes = 64
	}
	if c.InitialCwnd == 0 {
		c.InitialCwnd = 10 // IW10 (RFC 6928), as the paper-era Linux used
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 1200
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 60 * time.Second
	}
	if c.DupAckThreshold == 0 {
		c.DupAckThreshold = 3
	}
	if c.MaxDupAckThreshold == 0 {
		c.MaxDupAckThreshold = 300
	}
	return c
}

// SenderStats snapshots sender-side counters.
type SenderStats struct {
	SegmentsSent    int64
	Retransmits     int64
	FastRetransmits int64
	Timeouts        int64
	Undos           int64 // spurious-retransmit window restorations (DSACK undo)
	Cwnd            float64
	Ssthresh        float64
	SRTT            time.Duration
	RTO             time.Duration
	DupThresh       int // final adaptive fast-retransmit threshold
}

// senderCounters are the registry-backed sender counters, shared by
// the Reno and SACK senders (labelled flow=<src->dst>).
type senderCounters struct {
	segments    *telemetry.Counter
	retransmits *telemetry.Counter
	fastRetrans *telemetry.Counter
	timeouts    *telemetry.Counter
	undos       *telemetry.Counter
}

func newSenderCounters(reg *telemetry.Registry, flow packet.FlowID) senderCounters {
	f := flow.String()
	reg.Help("kar_tcp_retransmits_total", "TCP segments retransmitted (all causes).")
	return senderCounters{
		segments:    reg.Counter("kar_tcp_segments_sent_total", "flow", f),
		retransmits: reg.Counter("kar_tcp_retransmits_total", "flow", f),
		fastRetrans: reg.Counter("kar_tcp_fast_retransmits_total", "flow", f),
		timeouts:    reg.Counter("kar_tcp_timeouts_total", "flow", f),
		undos:       reg.Counter("kar_tcp_undo_total", "flow", f),
	}
}

// fill copies the counter values into a stats snapshot.
func (m senderCounters) fill(st *SenderStats) {
	st.SegmentsSent = m.segments.Value()
	st.Retransmits = m.retransmits.Value()
	st.FastRetransmits = m.fastRetrans.Value()
	st.Timeouts = m.timeouts.Value()
	st.Undos = m.undos.Value()
}

// receiverCounters are the registry-backed receiver counters.
type receiverCounters struct {
	goodputBytes *telemetry.Counter
	inOrder      *telemetry.Counter
	outOfOrder   *telemetry.Counter
	dups         *telemetry.Counter
	acks         *telemetry.Counter
}

func newReceiverCounters(reg *telemetry.Registry, flow packet.FlowID) receiverCounters {
	f := flow.String()
	reg.Help("kar_tcp_goodput_bytes_total", "In-order payload bytes delivered to the receiver.")
	return receiverCounters{
		goodputBytes: reg.Counter("kar_tcp_goodput_bytes_total", "flow", f),
		inOrder:      reg.Counter("kar_tcp_rx_segments_total", "flow", f, "order", "in"),
		outOfOrder:   reg.Counter("kar_tcp_rx_segments_total", "flow", f, "order", "ooo"),
		dups:         reg.Counter("kar_tcp_rx_segments_total", "flow", f, "order", "dup"),
		acks:         reg.Counter("kar_tcp_acks_sent_total", "flow", f),
	}
}

// senderCore is what the two loss-recovery strategies share: the flow's
// wiring, the congestion window with its undo state, the RFC 6298
// estimator, the RTO timer and the counters. A strategy embeds it and
// adds its scoreboard, trySend, onAck and the recovery half of
// onTimeout; every call between the two is static.
type senderCore struct {
	sched simnet.Clock
	edge  *edge.Edge
	flow  packet.FlowID
	cfg   Config

	started bool
	stopped bool

	// Sequence state, in segment units.
	nextSeq uint64 // one past the highest segment ever sent
	highAck uint64 // highest cumulative ACK (= receiver's next expected)

	// Congestion control.
	cwnd       float64
	ssthresh   float64
	dupThresh  int // adaptive fast-retransmit threshold (reordering detection)
	inRecovery bool
	recoverSeq uint64 // recovery ends when cumulative ACK passes this

	// DSACK undo state: a fast retransmit saves the pre-reduction
	// window; if the receiver then reports a duplicate (our
	// retransmission was spurious — the "lost" segment had merely been
	// reordered), the reduction is undone, as Linux does.
	undoArmed    bool
	undoCwnd     float64
	undoSsthresh float64

	// RTT estimation (one sample in flight, Karn's rule).
	srtt, rttvar, rto time.Duration
	hasSRTT           bool
	rttSeq            uint64 // segment being timed
	rttSentAt         time.Duration
	rttPending        bool

	// RTO timer: a single scheduler event is kept outstanding; re-arming
	// just moves the deadline, so the per-ACK path schedules (and
	// allocates) nothing.
	timerDeadline time.Duration
	timerPending  bool
	timerStopped  bool
	timerFn       func() // the strategy's timerFire, cached method value

	m senderCounters
}

func newSenderCore(net *simnet.Network, srcEdge *edge.Edge, flow packet.FlowID, cfg Config) senderCore {
	return senderCore{
		sched: net.ClockOf(srcEdge.Node()),
		edge:  srcEdge,
		flow:  flow,
		cfg:   cfg,
		cwnd:  cfg.InitialCwnd,
		// Initially ssthresh is "infinite": slow start until loss.
		ssthresh:  cfg.MaxCwnd,
		dupThresh: cfg.DupAckThreshold,
		rto:       time.Second, // RFC 6298 initial RTO
		m:         newSenderCounters(net.Metrics(), flow),
	}
}

// Stats reads the counters back from the registry and snapshots the
// live congestion state.
func (s *senderCore) Stats() SenderStats {
	var st SenderStats
	s.m.fill(&st)
	st.Cwnd = s.cwnd
	st.Ssthresh = s.ssthresh
	st.SRTT = s.srtt
	st.RTO = s.rto
	st.DupThresh = s.dupThresh
	return st
}

// window returns the effective send window in segments.
func (s *senderCore) window() float64 {
	if s.cwnd > s.cfg.MaxCwnd {
		return s.cfg.MaxCwnd
	}
	return s.cwnd
}

func (s *senderCore) sendSegment(seq uint64, retrans bool) {
	pkt := s.sched.NewPacket()
	pkt.Flow = s.flow
	pkt.Kind = packet.KindData
	pkt.Seq = seq
	pkt.Size = s.cfg.MSS + s.cfg.HeaderBytes
	pkt.SentAt = s.sched.Now()
	pkt.Retrans = retrans
	s.m.segments.Inc()
	if retrans {
		s.m.retransmits.Inc()
		if s.rttPending && seq == s.rttSeq {
			s.rttPending = false // Karn: retransmitted segment cannot be timed
		}
	} else if !s.rttPending {
		s.rttSeq = seq
		s.rttSentAt = s.sched.Now()
		s.rttPending = true
	}
	// Injection failures (no route) surface through edge stats; the
	// segment is then recovered like any other loss.
	if err := s.edge.Inject(pkt); err != nil {
		s.sched.Recycle(pkt)
	}
}

// raiseDupThresh adapts the fast-retransmit threshold to reordering of
// extent t-1, so reordering stops masquerading as loss (Linux
// tcp_reordering adaptation, capped alike).
func (s *senderCore) raiseDupThresh(t int) {
	if t > s.dupThresh {
		s.dupThresh = min(t, s.cfg.MaxDupAckThreshold)
	}
}

// armUndo remembers the window a loss event is about to reduce.
func (s *senderCore) armUndo() {
	s.undoArmed = true
	s.undoCwnd = s.cwnd
	s.undoSsthresh = s.ssthresh
}

// undo restores the pre-reduction window when pkt reports that the
// retransmission was spurious (the receiver already had the segment),
// and says whether it did.
func (s *senderCore) undo(pkt *packet.Packet) bool {
	if !pkt.DSACK || !s.undoArmed || s.cfg.DisableUndo {
		return false
	}
	s.m.undos.Inc()
	s.cwnd = s.undoCwnd
	s.ssthresh = s.undoSsthresh
	s.inRecovery = false
	s.undoArmed = false
	return true
}

// grow opens the window for acked newly acknowledged segments outside
// recovery: slow start below ssthresh, congestion avoidance above.
func (s *senderCore) grow(acked float64) {
	if s.cwnd < s.ssthresh {
		s.cwnd += acked
		if s.cwnd > s.ssthresh {
			s.cwnd = s.ssthresh
		}
	} else {
		s.cwnd += acked / s.cwnd
	}
}

// sampleRTT applies RFC 6298 smoothing when the timed segment is
// covered by this ACK.
func (s *senderCore) sampleRTT(ack uint64) {
	if !s.rttPending || ack <= s.rttSeq {
		return
	}
	sample := s.sched.Now() - s.rttSentAt
	s.rttPending = false
	if !s.hasSRTT {
		s.srtt = sample
		s.rttvar = sample / 2
		s.hasSRTT = true
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	rto := s.srtt + 4*s.rttvar
	if rto < s.cfg.MinRTO {
		rto = s.cfg.MinRTO
	}
	if rto > s.cfg.MaxRTO {
		rto = s.cfg.MaxRTO
	}
	s.rto = rto
}

// rearm (re)sets the RTO deadline; idle says nothing is outstanding.
// One scheduler event stays outstanding at a time; firing before the
// live deadline re-arms.
func (s *senderCore) rearm(idle bool) {
	if idle && s.stopped {
		s.timerStopped = true
		return
	}
	s.timerStopped = false
	s.timerDeadline = s.sched.Now() + s.rto
	if !s.timerPending {
		s.timerPending = true
		s.sched.At(s.timerDeadline, s.timerFn)
	}
}

// expired dispatches the outstanding RTO event: stopped timers no-op,
// deadlines pushed into the future re-arm, elapsed ones report true.
func (s *senderCore) expired() bool {
	s.timerPending = false
	if s.timerStopped {
		return false
	}
	if s.sched.Now() < s.timerDeadline {
		s.timerPending = true
		s.sched.At(s.timerDeadline, s.timerFn)
		return false
	}
	return true
}

// backoff is the window half of an RTO with data outstanding: collapse
// to one segment above half the outstanding data and double the timeout.
func (s *senderCore) backoff(outstanding float64) {
	s.m.timeouts.Inc()
	s.undoArmed = false // RTO reductions are not undone here
	s.ssthresh = halved(outstanding)
	s.cwnd = 1
	s.inRecovery = false
	s.rttPending = false // Karn
	s.rto *= 2
	if s.rto > s.cfg.MaxRTO {
		s.rto = s.cfg.MaxRTO
	}
}

// halved is the ssthresh a loss event leaves: half the outstanding
// data, at least two segments.
func halved(outstanding float64) float64 { return max(outstanding/2, 2) }

// Sender is the NewReno TCP sender endpoint, attached at the ingress
// edge. It models an iperf-style unlimited data source. Drive the
// simulation scheduler after Start.
type Sender struct {
	senderCore

	sendCursor uint64 // next segment to transmit; < nextSeq after an
	// RTO rollback, when the lost window is retransmitted go-back-N
	// style as the window reopens
	dupAcks     int
	lastReorder int // latest reordering extent echoed by the receiver
}

// ReceiverStats snapshots receiver-side counters.
type ReceiverStats struct {
	BytesInOrder     int64 // goodput: in-order payload bytes
	SegmentsInOrder  int64
	SegmentsOutOfOrd int64 // arrived ahead of the in-order point
	SegmentsDup      int64 // arrived at or behind the in-order point twice
	AcksSent         int64
	MaxGap           int // worst observed reordering distance (segments)
}

// Receiver is the TCP receiver endpoint at the egress edge. It sends
// an immediate cumulative ACK for every data segment.
type Receiver struct {
	sched simnet.Clock
	edge  *edge.Edge
	flow  packet.FlowID
	cfg   Config

	expected uint64 // next in-order segment
	buf      map[uint64]bool
	// reorderExtent is the latest observed reordering distance: when a
	// late ORIGINAL (non-retransmitted) segment fills the in-order
	// hole, the number of higher segments that overtook it. Echoed on
	// ACKs as the SACK-scoreboard information a real stack derives.
	reorderExtent int
	// dsackPending marks that a duplicate segment just arrived; the
	// next ACK carries the DSACK signal.
	dsackPending bool
	// sackBlock makes ACKs carry selective-acknowledgement ranges
	// (set by NewSACKFlow).
	sackBlock bool

	m      receiverCounters
	maxGap int // worst observed reordering distance (segments)
}

// newReceiver wires the receiver of flow at dstEdge; sack makes its
// ACKs carry selective-acknowledgement ranges.
func newReceiver(net *simnet.Network, dstEdge *edge.Edge, flow packet.FlowID, cfg Config, sack bool) *Receiver {
	r := &Receiver{
		sched:     net.ClockOf(dstEdge.Node()),
		edge:      dstEdge,
		flow:      flow,
		cfg:       cfg,
		buf:       make(map[uint64]bool),
		sackBlock: sack,
		m:         newReceiverCounters(net.Metrics(), flow),
	}
	dstEdge.Attach(flow, edge.ReceiverFunc(r.onData))
	return r
}

// NewFlow wires a sender at srcEdge and a receiver at dstEdge for the
// given flow ID. Routes in both directions must already be installed
// on the edges. The sender consumes ACKs arriving for the reverse
// flow; the receiver consumes data for the forward flow.
func NewFlow(net *simnet.Network, srcEdge, dstEdge *edge.Edge, flow packet.FlowID, cfg Config) (*Sender, *Receiver) {
	cfg = cfg.Defaults()
	s := &Sender{senderCore: newSenderCore(net, srcEdge, flow, cfg)}
	s.timerFn = s.timerFire
	r := newReceiver(net, dstEdge, flow, cfg, false)
	srcEdge.Attach(flow.Reverse(), edge.ReceiverFunc(s.onAck))
	return s, r
}

// Start begins transmitting at the current virtual time.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.trySend()
	s.armTimer()
}

// flight returns outstanding segments: sent since the last rollback
// and not yet acknowledged.
func (s *Sender) flight() uint64 { return s.sendCursor - s.highAck }

// trySend transmits segments at the cursor while the window allows:
// retransmissions of a rolled-back window first, then new data.
func (s *Sender) trySend() {
	for float64(s.flight()) < s.window() {
		retrans := s.sendCursor < s.nextSeq
		if !retrans && s.stopped {
			return
		}
		s.sendSegment(s.sendCursor, retrans)
		s.sendCursor++
		if s.sendCursor > s.nextSeq {
			s.nextSeq = s.sendCursor
		}
	}
}

// onAck processes an arriving cumulative ACK. pkt.Seq carries the
// receiver's next expected segment. The ACK terminates here, so the
// sender recycles it.
func (s *Sender) onAck(pkt *packet.Packet) {
	defer s.sched.Recycle(pkt)
	if s.undo(pkt) {
		s.dupAcks = 0
	}
	s.lastReorder = int(pkt.ReorderExtent)
	// The receiver observed reordering wider than our threshold: adapt.
	s.raiseDupThresh(s.lastReorder + 1)
	ack := pkt.Seq
	switch {
	case ack > s.highAck:
		s.onNewAck(ack)
	case ack == s.highAck && s.flight() > 0:
		s.onDupAck()
	default:
		// Stale (reordered) ACK: ignore.
	}
}

func (s *Sender) onNewAck(ack uint64) {
	acked := float64(ack - s.highAck)
	s.highAck = ack
	if s.sendCursor < ack {
		// A retransmission filled a hole and the cumulative ACK jumped
		// past the cursor (the receiver had buffered the rest).
		s.sendCursor = ack
	}
	s.sampleRTT(ack)

	if s.inRecovery {
		if ack > s.recoverSeq {
			// Full recovery: deflate to ssthresh and resume CA.
			s.inRecovery = false
			s.cwnd = s.ssthresh
			s.dupAcks = 0
		} else {
			// NewReno partial ACK: the next hole is also lost;
			// retransmit it immediately and deflate by the amount acked.
			s.cwnd -= acked
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.cwnd++ // the retransmitted segment re-enters flight
			s.sendSegment(s.highAck, true)
		}
	} else {
		if s.dupAcks > 0 {
			// The hole filled itself without a retransmission: those
			// duplicate ACKs were reordering, not loss. Raise the
			// fast-retransmit threshold past the observed extent.
			s.raiseDupThresh(s.dupAcks + 1)
		}
		s.dupAcks = 0
		s.grow(acked)
	}
	s.armTimer()
	s.trySend()
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	if s.inRecovery {
		s.cwnd++ // window inflation per dup
		s.trySend()
		return
	}
	if s.dupAcks >= s.dupThresh {
		// The receiver is currently observing reordering at least as
		// wide as our dup count: hold off — the "hole" is very likely
		// a late packet, not a loss (Linux delays fast retransmit the
		// same way while its reordering metric exceeds the dup count;
		// the RTO remains the loss backstop).
		if s.lastReorder >= s.dupAcks && s.dupAcks < s.cfg.MaxDupAckThreshold {
			return
		}
		// Fast retransmit + enter fast recovery, remembering the
		// pre-reduction window for a potential DSACK undo.
		s.armUndo()
		s.m.fastRetrans.Inc()
		s.ssthresh = halved(float64(s.flight()))
		s.cwnd = s.ssthresh + float64(s.dupThresh)
		s.inRecovery = true
		s.recoverSeq = s.nextSeq
		s.sendSegment(s.highAck, true)
		s.armTimer()
	}
}

func (s *Sender) armTimer() { s.rearm(s.flight() == 0) }

func (s *Sender) timerFire() {
	if s.expired() {
		s.onTimeout()
	}
}

func (s *Sender) onTimeout() {
	if s.flight() == 0 {
		// Idle: nothing outstanding; try to send (window may allow).
		s.trySend()
		s.armTimer()
		return
	}
	s.backoff(float64(s.flight()))
	s.dupAcks = 0
	// Go-back-N: roll the cursor back; the lost window is resent as
	// the window reopens.
	s.sendCursor = s.highAck
	s.trySend()
	s.armTimer()
}

// onData handles an arriving data segment at the receiver. The
// segment terminates here, so the receiver recycles it.
func (r *Receiver) onData(pkt *packet.Packet) {
	defer r.sched.Recycle(pkt)
	seq := pkt.Seq
	switch {
	case seq == r.expected:
		if !pkt.Retrans && len(r.buf) > 0 {
			// A late original overtaken by len(buf) higher segments:
			// that is reordering, not loss — record the extent.
			r.reorderExtent = len(r.buf)
		}
		r.m.goodputBytes.Add(int64(r.cfg.MSS))
		r.m.inOrder.Inc()
		r.expected++
		for r.buf[r.expected] {
			delete(r.buf, r.expected)
			r.m.goodputBytes.Add(int64(r.cfg.MSS))
			r.m.inOrder.Inc()
			r.expected++
		}
	case seq > r.expected:
		if gap := int(seq - r.expected); gap > r.maxGap {
			r.maxGap = gap
		}
		if r.buf[seq] {
			r.m.dups.Inc()
			r.dsackPending = true
		} else {
			r.buf[seq] = true
			r.m.outOfOrder.Inc()
		}
	default:
		r.m.dups.Inc()
		r.dsackPending = true
	}
	r.sendAck()
}

func (r *Receiver) sendAck() {
	ack := r.sched.NewPacket()
	ack.Flow = r.flow.Reverse()
	ack.Kind = packet.KindAck
	ack.Seq = r.expected
	ack.Size = r.cfg.AckBytes
	ack.SentAt = r.sched.Now()
	ack.ReorderExtent = int32(r.reorderExtent)
	ack.DSACK = r.dsackPending
	if r.sackBlock && len(r.buf) > 0 {
		// Refill the pooled packet's SACK slice in place: its backing
		// array survives Release, so steady-state ACKs allocate nothing.
		ack.SACKBlocks = r.sackRanges(ack.SACKBlocks[:0], 3)
	}
	r.dsackPending = false
	r.m.acks.Inc()
	if err := r.edge.Inject(ack); err != nil {
		r.sched.Recycle(ack)
	}
}

// sackRanges scans the out-of-order buffer upward from the in-order
// point and appends up to max contiguous received ranges to dst.
func (r *Receiver) sackRanges(dst []packet.SACKBlock, max int) []packet.SACKBlock {
	const scanLimit = 4096 // bound the walk; windows are far smaller
	seq := r.expected + 1
	for n := 0; n < scanLimit && len(dst) < max; n++ {
		if !r.buf[seq] {
			seq++
			continue
		}
		start := seq
		for r.buf[seq] {
			seq++
		}
		dst = append(dst, packet.SACKBlock{From: start, To: seq})
	}
	return dst
}

// Stats reads the counters back from the registry.
func (r *Receiver) Stats() ReceiverStats {
	return ReceiverStats{
		BytesInOrder:     r.m.goodputBytes.Value(),
		SegmentsInOrder:  r.m.inOrder.Value(),
		SegmentsOutOfOrd: r.m.outOfOrder.Value(),
		SegmentsDup:      r.m.dups.Value(),
		AcksSent:         r.m.acks.Value(),
		MaxGap:           r.maxGap,
	}
}

// BytesInOrder returns cumulative in-order payload bytes — the
// iperf-equivalent goodput counter experiments sample over time.
func (r *Receiver) BytesInOrder() int64 { return r.m.goodputBytes.Value() }
