package simnet

import (
	"time"

	"repro/internal/packet"
	"repro/internal/telemetry"
)

// dropLog is a trace sink that keeps only what the flight recorder keeps
// of a loss: the drop record of every sampled packet, in drop order.
// The tests that read Drop.Packet afterwards send packets the pool does
// not own, which Release leaves alone.
type dropLog struct{ drops []Drop }

// logDrops attaches a dropLog to n; only packets sent with Sampled set
// reach it.
func logDrops(n *Network) *dropLog {
	l := &dropLog{}
	n.SetTraceSink(l)
	return l
}

func (l *dropLog) PacketDrop(d Drop) { l.drops = append(l.drops, d) }

// seqs lists the dropped packets' sequence numbers, in drop order.
func (l *dropLog) seqs() []uint64 {
	seqs := make([]uint64, len(l.drops))
	for i, d := range l.drops {
		seqs[i] = d.Packet.Seq
	}
	return seqs
}

func (*dropLog) SampleFlow(packet.FlowID) bool                                 { return true }
func (*dropLog) PacketInject(*packet.Packet, string, int, int)                 {}
func (*dropLog) PacketHop(*packet.Packet, string, int, int, int, string)       {}
func (*dropLog) PacketTx(*packet.Packet, string, time.Duration, time.Duration) {}
func (*dropLog) PacketDecap(*packet.Packet, string)                            {}
func (*dropLog) PacketReencode(*packet.Packet, string, int)                    {}
func (*dropLog) PacketCorrupt(*packet.Packet, string)                          {}
func (*dropLog) CtrlEvent(telemetry.Event)                                     {}

// dropsBy reads kar_net_drops_total{reason}.
func dropsBy(n *Network, reason DropReason) int64 {
	return n.metrics.SumCounter("kar_net_drops_total", "reason", reason.String())
}
