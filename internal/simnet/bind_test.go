package simnet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rns"
)

// batchRecorder is a BatchHandler that keeps what reached it: the
// sequence numbers in arrival order, and how many came with a residue.
type batchRecorder struct {
	clk     Clock
	red     rns.Reducer
	seqs    []uint64
	batched int
}

func (r *batchRecorder) HandlePacket(pkt *packet.Packet, inPort int) {
	r.seqs = append(r.seqs, pkt.Seq)
	r.clk.Recycle(pkt)
}

func (r *batchRecorder) BatchReducer() (rns.Reducer, bool) { return r.red, true }

func (r *batchRecorder) HandleBatchPacket(pkt *packet.Packet, inPort int, residue uint16) {
	if want := uint16(r.red.Mod(pkt.RouteID)); residue != want {
		panic(fmt.Sprintf("seq %d: residue %d, want %d", pkt.Seq, residue, want))
	}
	r.batched++
	r.HandlePacket(pkt, inPort)
}

// TestBindResolvesEndpointWhenDelivering: a direction reads its
// receiving node's endpoint at each delivery, whether the delivery is a
// train member or a queue entry of its own (the scalar plane, and the
// cut C2→C3 direction at shards=2). Packets queued toward C3 while it
// is unbound reach the handler a later Bind attaches — with residues
// under its reducer wherever the direction batches, also after a
// second Bind to a handler of another modulus — and packets into C4,
// never bound, are no-port drops named after C4.
func TestBindResolvesEndpointWhenDelivering(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, scalar := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/scalar=%v", shards, scalar), func(t *testing.T) {
				w := newShardChain(t, shards, scalar)
				c2, c3, c4 := w.relays[1].node, w.relays[2].node, w.relays[3].node
				w.n.Bind(c3, nil)
				w.n.Bind(c4, nil)
				log := logDrops(w.n)
				rec := &batchRecorder{clk: w.n.ClockOf(c3), red: rns.NewReducer(7)}
				rec2 := &batchRecorder{clk: w.n.ClockOf(c3), red: rns.NewReducer(11)}
				w.n.Scheduler().At(0, func() {
					for i := 0; i < 6; i++ {
						w.n.Send(c2, 1, &packet.Packet{Size: 600, TTL: 16, Seq: uint64(i), RouteID: rns.RouteIDFromUint64(uint64(100 + i))})
					}
					for i := 0; i < 3; i++ {
						w.n.Send(c3, 1, &packet.Packet{Size: 600, TTL: 16, Seq: uint64(10 + i), Sampled: true})
					}
				})
				// The first C2→C3 packet lands at 48 µs of serialization
				// plus 300 µs of propagation: bind before that, and bind
				// again once it has landed, its five followers' residues
				// computed under the first handler's modulus.
				w.n.Scheduler().At(100*time.Microsecond, func() { w.n.Bind(c3, rec) })
				w.n.Scheduler().At(360*time.Microsecond, func() { w.n.Bind(c3, rec2) })
				w.n.RunUntil(10 * time.Millisecond)

				if want := []uint64{0}; !reflect.DeepEqual(rec.seqs, want) {
					t.Errorf("the late-bound C3 got %v, want %v", rec.seqs, want)
				}
				if want := []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(rec2.seqs, want) {
					t.Errorf("the rebound C3 got %v, want %v", rec2.seqs, want)
				}
				line, dir := w.n.LineAt(c2, 1)
				wantBatched := 6
				if line.dirs[dir].noBatch {
					wantBatched = 0
				}
				if cut := line.dirs[dir].lane != line.dirs[dir].dstLane; cut != (shards == 2) {
					t.Errorf("C2→C3 cut = %v at shards=%d", cut, shards)
				}
				if got := rec.batched + rec2.batched; got != wantBatched {
					t.Errorf("%d packets reached C3 with a residue, want %d", got, wantBatched)
				}
				if got := dropsBy(w.n, DropNoPort); got != 3 || w.n.Metrics().SumCounter("kar_net_drops_total") != 3 {
					t.Errorf("%d no-port drops of %d, want the 3 packets sent into the unbound C4",
						got, w.n.Metrics().SumCounter("kar_net_drops_total"))
				}
				for _, d := range log.drops {
					if d.Where != "C4" || d.Reason != DropNoPort {
						t.Errorf("seq %d dropped at %q for %v, want at C4 for no-port", d.Packet.Seq, d.Where, d.Reason)
					}
				}
				if got := w.n.Delivered(); got != 6 {
					t.Errorf("Delivered() = %d, want 6", got)
				}
			})
		}
	}
}
