// Package packet models the packets that traverse a KAR network and
// the KAR header wire format. Edge nodes attach a header containing
// the route ID when a packet enters the core and strip it on egress
// (paper §2); core switches only ever read RouteID and TTL.
package packet

import (
	"time"

	"repro/internal/rns"
)

// Kind discriminates transport payload types carried through the core.
type Kind uint8

const (
	// KindData is a transport data segment.
	KindData Kind = iota + 1
	// KindAck is a transport acknowledgement.
	KindAck
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	default:
		return "unknown"
	}
}

// FlowID identifies a unidirectional transport flow between two edge
// nodes.
type FlowID struct {
	Src string // ingress edge name
	Dst string // egress edge name
	ID  uint32 // flow number, distinguishing parallel flows
}

func (f FlowID) String() string {
	return f.Src + "->" + f.Dst
}

// Reverse returns the flow ID of the opposite direction (ACK path).
func (f FlowID) Reverse() FlowID {
	return FlowID{Src: f.Dst, Dst: f.Src, ID: f.ID}
}

// Packet is one simulated packet. The KAR header fields (RouteID, TTL)
// are what the wire codec serialises; the rest models the inner
// transport segment plus simulation bookkeeping.
//
// The fields a hop reads or writes come first, so they share the first
// cache line of the 128-byte object (packet_test.go pins both): a
// large world's hop misses on packets, and a hop that touches one line
// of each misses once.
type Packet struct {
	// Per-hop fields.
	RouteID rns.RouteID // KAR header
	Size    int         // total bytes on the wire
	Hops    int         // links traversed so far (not on the wire)
	// TTL is the KAR header's hop budget. It is signed so that a
	// decrement past zero still reads TTL <= 0.
	TTL  int32
	Kind Kind
	// Deflected: the packet has left its encoded path at least once.
	Deflected bool
	// Sampled marks packets whose journey the flight recorder follows;
	// stamped once at ingress (per-flow sampling) so every hot-path
	// trace hook reduces to one bool test on unsampled packets.
	Sampled bool
	// pooled marks packets obtained from Get; Release recycles only
	// these, so hand-built &Packet{} values stay inert and safe to
	// retain (tests, captures).
	pooled  bool
	Retrans bool // retransmission (Karn's rule)
	// DSACK (ACKs only) reports that the receiver just saw a segment
	// it already had — the duplicate-SACK signal real stacks use to
	// detect spurious retransmissions and undo the window reduction.
	DSACK bool
	// ReorderExtent (ACKs only) carries the receiver's most recently
	// observed reordering distance in segments — the information a
	// SACK scoreboard/DSACK gives a real sender, which Linux uses to
	// adapt its fast-retransmit threshold (tcp_reordering).
	ReorderExtent int32

	// Inner transport segment.
	Flow   FlowID
	Seq    uint64        // data: segment number; ack: next expected segment
	SentAt time.Duration // virtual send time (for RTT estimation)
	// SACKBlocks (ACKs only) carries up to three selective-ACK ranges
	// describing out-of-order data the receiver holds.
	SACKBlocks []SACKBlock
}

// SACKBlock is one selective-acknowledgement range: segments
// [From, To) have been received.
type SACKBlock struct {
	From, To uint64
}

// DefaultTTL bounds random walks; hot-potato deflection relies on it
// to terminate hopeless packets.
const DefaultTTL = 64
