package analysis_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/deflect"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// ttlCase is a hand-built S→D topology on which the TTL decides the
// verdict: its cores, links, explicit protection pairs and the links
// failed before any traffic, with what the simulator does to the flow.
type ttlCase struct {
	name       string
	edges      []string
	cores      []string
	links      [][2]string
	protection [][2]string
	fail       [][2]string
	policies   []string
	delivered  bool
	hops       float64 // on delivery
}

// graph builds the case's topology, the cores numbered with the primes
// from 3 in order: pairwise coprime and above every port index.
func (c ttlCase) graph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.New(c.name)
	for _, e := range c.edges {
		if _, err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	id := uint64(2)
	for _, name := range c.cores {
		for id++; !prime(id); id++ {
		}
		if _, err := g.AddCore(name, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range c.links {
		if _, err := g.Connect(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func prime(n uint64) bool {
	for d := uint64(2); d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return n > 1
}

// chainOf names prefix+from … prefix+to and links each to the next.
func chainOf(prefix string, from, to int) (names []string, links [][2]string) {
	for i := from; i <= to; i++ {
		names = append(names, fmt.Sprint(prefix, i))
		if i > from {
			links = append(links, [2]string{names[len(names)-2], names[len(names)-1]})
		}
	}
	return names, links
}

// line is S–C1–…–Cn–D: the packet crosses n cores on one encoding.
func line(n int, delivered bool) ttlCase {
	cores, links := chainOf("C", 1, n)
	links = append(links, [2]string{"S", "C1"}, [2]string{cores[n-1], "D"})
	return ttlCase{
		name: fmt.Sprintf("line%d", n), edges: []string{"S", "D"}, cores: cores, links: links,
		policies: []string{"none", "dtree"}, delivered: delivered, hops: float64(n + 1),
	}
}

// reencodeCase fails A–Z on S–A–Z–D. dtree's fallback at A takes Y1;
// protection drives the packet down Y1…Y61 and X0 onto the wrong edge
// W, 63 cores on the ingress TTL. W re-encodes onto W–X0…X61–Z–D, 63
// cores again (the way back through A is 64), so the packet arrives
// after 128 hops only if the re-encode stamps a full TTL.
func reencodeCase() ttlCase {
	ys, yLinks := chainOf("Y", 1, 61)
	xs, xLinks := chainOf("X", 0, 61)
	var protection [][2]string
	protection = append(protection, yLinks...)
	protection = append(protection, [2]string{"Y61", "X0"}, [2]string{"X0", "W"})
	links := [][2]string{{"S", "A"}, {"A", "Z"}, {"Z", "D"}, {"A", "Y1"}, {"Y61", "X0"}, {"X0", "W"}, {"X61", "Z"}}
	links = append(append(links, yLinks...), xLinks...)
	return ttlCase{
		name: "reencode", edges: []string{"S", "W", "D"},
		cores: append(append([]string{"A", "Z"}, ys...), xs...), links: links,
		protection: protection, fail: [][2]string{{"A", "Z"}},
		policies: []string{"dtree"}, delivered: true, hops: 128,
	}
}

// TestFollowKeepsTheSimulatorsTTL: on topologies where a packet crosses
// exactly 63 or 64 cores on one encoding, Analyze and DeliverWithin
// give the verdict and hop count a simulated flow measures — the
// ingress edge and a re-encoding edge both stamp packet.DefaultTTL, and
// each core spends one.
func TestFollowKeepsTheSimulatorsTTL(t *testing.T) {
	const count = 200
	for _, tc := range []ttlCase{line(63, true), line(64, false), reencodeCase()} {
		for _, policy := range tc.policies {
			t.Run(tc.name+"/"+policy, func(t *testing.T) {
				want := 0.0
				if tc.delivered {
					want = 1
				}
				g := tc.graph(t)
				hops, err := core.HopsFromPairs(g, tc.protection)
				if err != nil {
					t.Fatal(err)
				}
				ctrl := controller.New(g)
				if _, err := ctrl.InstallRoute("S", "D", hops); err != nil {
					t.Fatal(err)
				}
				a, err := analysis.New(ctrl, policy, failLinks(t, g, tc.fail...))
				if err != nil {
					t.Fatal(err)
				}
				res, err := a.Analyze("S", "D")
				if err != nil {
					t.Fatal(err)
				}
				within, err := a.DeliverWithin("S", "D", packet.DefaultTTL)
				if err != nil {
					t.Fatal(err)
				}
				if res.PDeliver != want || within != want {
					t.Errorf("PDeliver=%v DeliverWithin=%v, want %v", res.PDeliver, within, want)
				}
				if tc.delivered && res.ExpectedHops != tc.hops {
					t.Errorf("ExpectedHops=%v, want %v", res.ExpectedHops, tc.hops)
				}

				gSim := tc.graph(t)
				pol, _ := deflect.ByName(policy)
				w := experiment.NewWorld(gSim, pol, 1)
				if _, err := w.InstallRoute("S", "D", tc.protection); err != nil {
					t.Fatal(err)
				}
				for _, l := range failLinks(t, gSim, tc.fail...) {
					w.Net.FailLink(l)
				}
				send, recv := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], packet.FlowID{Src: "S", Dst: "D"},
					udpsim.Config{Interval: time.Millisecond, Count: count})
				send.Start()
				w.Run(5 * time.Second)
				st := recv.Stats(send)
				if got := float64(st.Received) / count; got != want {
					t.Errorf("simulated %d of %d delivered, analysis %v", st.Received, count, want)
				}
				if tc.delivered && st.MeanHops() != tc.hops {
					t.Errorf("simulated mean hops %v, want %v", st.MeanHops(), tc.hops)
				}
			})
		}
	}
}
