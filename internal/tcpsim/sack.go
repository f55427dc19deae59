package tcpsim

import (
	"repro/internal/edge"
	"repro/internal/packet"
	"repro/internal/simnet"
)

// SACKSender is a TCP sender with a selective-acknowledgement
// scoreboard (RFC 6675 style), the transport the paper's Mininet
// hosts actually ran. Compared to the NewReno Sender it retransmits
// exactly the segments the receiver is missing — one loss event no
// longer costs a full round trip per hole, and go-back-N after an RTO
// never resends data the receiver already buffered.
//
// Loss detection is scoreboard-based with the same adaptive
// reordering threshold as the Reno sender: a segment is marked lost
// when at least dupThresh segments above it have been SACKed.
// Spurious marks are undone via the receiver's DSACK signal.
type SACKSender struct {
	senderCore

	// Scoreboard over [highAck, nextSeq): segment states.
	sacked map[uint64]bool // SACKed by the receiver
	lost   map[uint64]bool // marked lost, awaiting retransmission
	retans map[uint64]bool // retransmitted since last mark
}

// NewSACKFlow wires a SACK sender at srcEdge and the standard
// receiver at dstEdge. The receiver's ACKs carry SACK blocks derived
// from its out-of-order buffer.
func NewSACKFlow(net *simnet.Network, srcEdge, dstEdge *edge.Edge, flow packet.FlowID, cfg Config) (*SACKSender, *Receiver) {
	cfg = cfg.Defaults()
	s := &SACKSender{
		senderCore: newSenderCore(net, srcEdge, flow, cfg),
		sacked:     make(map[uint64]bool),
		lost:       make(map[uint64]bool),
		retans:     make(map[uint64]bool),
	}
	s.timerFn = s.timerFire
	r := newReceiver(net, dstEdge, flow, cfg, true)
	srcEdge.Attach(flow.Reverse(), edge.ReceiverFunc(s.onAck))
	return s, r
}

// Start begins transmitting.
func (s *SACKSender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.trySend()
	s.armTimer()
}

// pipe estimates outstanding data per RFC 6675: segments sent, not
// SACKed, not marked lost (lost ones are presumed gone).
func (s *SACKSender) pipe() float64 {
	out := float64(s.nextSeq - s.highAck)
	for seq := range s.sacked {
		if seq >= s.highAck {
			out--
		}
	}
	for seq := range s.lost {
		if seq >= s.highAck && !s.retans[seq] && !s.sacked[seq] {
			out--
		}
	}
	if out < 0 {
		out = 0
	}
	return out
}

// trySend first retransmits marked-lost holes, then sends new data,
// while the pipe fits the window. The pipe estimate is computed once
// and updated incrementally: each transmission adds one outstanding
// segment.
func (s *SACKSender) trySend() {
	pipe := s.pipe()
	for pipe < s.window() {
		if seq, ok := s.nextLost(); ok {
			s.sendSegment(seq, true)
			s.retans[seq] = true
			pipe++
			continue
		}
		if s.stopped {
			return
		}
		s.sendSegment(s.nextSeq, false)
		s.nextSeq++
		pipe++
	}
}

// nextLost returns the lowest lost, un-retransmitted, un-SACKed
// segment.
func (s *SACKSender) nextLost() (uint64, bool) {
	best, found := uint64(0), false
	for seq := range s.lost {
		if seq < s.highAck || s.retans[seq] || s.sacked[seq] {
			continue
		}
		if !found || seq < best {
			best, found = seq, true
		}
	}
	return best, found
}

// onAck processes a cumulative ACK with SACK blocks. The ACK
// terminates here, so the sender recycles it.
func (s *SACKSender) onAck(pkt *packet.Packet) {
	defer s.sched.Recycle(pkt)
	s.raiseDupThresh(int(pkt.ReorderExtent) + 1)
	if s.undo(pkt) {
		// Clear stale loss marks: they were reordering.
		for seq := range s.lost {
			delete(s.lost, seq)
		}
	}

	ack := pkt.Seq
	newly := float64(0)
	if ack > s.highAck {
		newly = float64(ack - s.highAck)
		for seq := s.highAck; seq < ack; seq++ {
			delete(s.sacked, seq)
			delete(s.lost, seq)
			delete(s.retans, seq)
		}
		s.highAck = ack
		if s.highAck > s.nextSeq {
			s.nextSeq = s.highAck
		}
		s.sampleRTT(ack)
		s.armTimer()
	}
	// Record SACK blocks.
	for _, blk := range pkt.SACKBlocks {
		for seq := blk.From; seq < blk.To && seq < s.nextSeq; seq++ {
			if seq >= s.highAck {
				s.sacked[seq] = true
			}
		}
	}
	s.markLost()

	if s.inRecovery {
		if s.highAck > s.recoverSeq {
			s.inRecovery = false
			s.cwnd = s.ssthresh
		}
	} else if _, haveLoss := s.nextLost(); haveLoss {
		// Enter recovery once per loss event.
		s.m.fastRetrans.Inc()
		s.armUndo()
		s.ssthresh = halved(s.pipe())
		s.cwnd = s.ssthresh
		s.inRecovery = true
		s.recoverSeq = s.nextSeq
	} else if newly > 0 {
		s.grow(newly)
	}
	s.trySend()
}

// markLost applies the scoreboard loss rule: a segment is lost when
// dupThresh or more segments above it have been SACKed.
func (s *SACKSender) markLost() {
	if len(s.sacked) < s.dupThresh {
		return
	}
	// Count, for each unSACKed segment, how many SACKed segments lie
	// above it. Walk from the top: aboveSacked accumulates.
	// Bounded scan: only the window [highAck, nextSeq).
	above := 0
	for seq := s.nextSeq; seq > s.highAck; seq-- {
		cur := seq - 1
		if s.sacked[cur] {
			above++
			continue
		}
		if above >= s.dupThresh && !s.lost[cur] && !s.retans[cur] {
			s.lost[cur] = true
		}
	}
}

func (s *SACKSender) armTimer() { s.rearm(s.nextSeq == s.highAck) }

func (s *SACKSender) timerFire() {
	if s.expired() {
		s.onTimeout()
	}
}

func (s *SACKSender) onTimeout() {
	if s.nextSeq == s.highAck {
		s.trySend()
		s.armTimer()
		return
	}
	s.backoff(s.pipe())
	// RFC 6675 on RTO: clear retransmission marks and consider every
	// unSACKed outstanding segment lost — nothing unacknowledged is
	// presumed in flight any more. SACKed data is never resent.
	for seq := range s.retans {
		delete(s.retans, seq)
	}
	for seq := s.highAck; seq < s.nextSeq; seq++ {
		if !s.sacked[seq] {
			s.lost[seq] = true
		}
	}
	s.trySend()
	s.armTimer()
}
