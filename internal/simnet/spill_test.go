package simnet_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/experiment"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// TestScaleWorldSpillsPastFrontHeap: every small world of the test
// suite lives in the queue's front heap, so the determinism matrix's
// scale rows (fattree:4, 20 000 flows at 20 packets/s, byte-compared
// across shards and data planes in determinism_test.go) are what walks
// the calendar's ring and far heap in CI. This builds a world of that
// shape and holds that it does, in every mode the matrix compares, and
// that the outcome does not depend on the mode.
func TestScaleWorldSpillsPastFrontHeap(t *testing.T) {
	var ref udpsim.SetStats
	for i, m := range []struct {
		shards int
		scalar bool
	}{{1, false}, {2, false}, {4, false}, {1, true}, {2, true}, {4, true}} {
		t.Run(fmt.Sprintf("shards=%d,scalar=%v", m.shards, m.scalar), func(t *testing.T) {
			g, err := topology.FromSpec("fattree:4")
			if err != nil {
				t.Fatal(err)
			}
			policy, _ := deflect.ByName("nip")
			opts := []any{simnet.WithShards(m.shards)}
			if m.scalar {
				opts = append(opts, simnet.WithScalarDataPlane())
			}
			w := experiment.NewWorld(g, policy, 3, opts...)
			hosts := g.EdgeNodes()
			var pairs []udpsim.Pair
			for i := range hosts { // 16 hosts, each sending across the fabric
				src, dst := hosts[i].Name(), hosts[(i+len(hosts)/2)%len(hosts)].Name()
				if _, err := w.InstallRoute(src, dst, nil); err != nil {
					t.Fatal(err)
				}
				pairs = append(pairs, udpsim.Pair{Src: w.Edges[src], Dst: w.Edges[dst]})
			}
			const duration = 200 * time.Millisecond
			// A fabric failure mid-run: a control event far past the
			// ring's horizon when it is posted.
			for _, l := range g.Links() {
				if l.A().Kind() == topology.KindCore && l.B().Kind() == topology.KindCore {
					w.Net.ScheduleFailure(l, duration*2/5, duration/5)
					break
				}
			}
			fs, err := udpsim.NewFlowSet(w.Net, pairs, udpsim.SetConfig{
				Name: "scale", Flows: 20000, Rate: 20, Seed: 3, Until: duration,
			})
			if err != nil {
				t.Fatal(err)
			}
			fs.Start()
			w.Run(duration + 200*time.Millisecond)

			st := fs.Stats()
			if st.Sent == 0 || w.Net.Pending() != 0 {
				t.Fatalf("sent %d packets, %d entries still pending", st.Sent, w.Net.Pending())
			}
			if ring, far := w.Net.QueueSpill(); ring == 0 || far == 0 {
				t.Errorf("queues grew %d ring nodes and %d far slots; the scale world must use both", ring, far)
			}
			if i == 0 {
				ref = st
			} else if st != ref {
				t.Errorf("flow-set stats %+v differ from the 1-shard batched run's %+v", st, ref)
			}
		})
	}
}
