package resilience_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// Cross-validation of the verifier's closed-form delivery probability
// against the packet-level simulation: for each policy, fail one link
// permanently before any traffic, push a seeded CBR flow through the
// full data plane, and require the measured delivery ratio to sit in
// a band around the Markov-chain prediction.
//
// The chain's one modeling gap used to force a loose one-sided band:
// Analyze walks forever while real packets carry a TTL, so the
// simulation could undershoot by up to the Markov bound E[hops]/TTL —
// on hp that bound swallowed almost the whole unit interval.
// DeliverWithin closes the gap: it computes the exact TTL-truncated
// delivery probability under the simulator's discipline (cores
// decrement, edges refresh on re-encode), so the band is just sampling
// noise, symmetric, and asserted on both sides — an overshoot fails
// the same way an undershoot does.

type xvCase struct {
	name       string
	graph      func() (*topology.Graph, error)
	path       []string // pinned route (nil: shortest E1->E2)
	src, dst   string
	protection [][2]string
	fail       [2]string
}

func xvCases(t *testing.T) []xvCase {
	t.Helper()
	cases := []xvCase{
		{
			name:       "net15",
			graph:      topology.Net15,
			path:       []string{"AS1", "SW10", "SW7", "SW13", "SW29", "AS3"},
			src:        "AS1",
			dst:        "AS3",
			protection: topology.Net15PartialProtection,
			fail:       [2]string{"SW7", "SW13"},
		},
		{
			// The ingress link itself: the edge sends every packet onto a
			// dead link, so the walk must be a loss before any switch.
			name:       "net15-ingress",
			graph:      topology.Net15,
			path:       []string{"AS1", "SW10", "SW7", "SW13", "SW29", "AS3"},
			src:        "AS1",
			dst:        "AS3",
			protection: topology.Net15PartialProtection,
			fail:       [2]string{"AS1", "SW10"},
		},
	}
	// One generated topology: fail the first on-path core link whose
	// removal keeps the graph connected.
	gen := func() (*topology.Graph, error) { return topology.FromSpec("rand:6:3:2:7") }
	g, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	path, err := topology.ShortestPath(g, "E1", "E2", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pick *topology.Link
	for _, l := range path.Links() {
		if l.A().Kind() == topology.KindCore && l.B().Kind() == topology.KindCore &&
			stillConnected(g, "E1", "E2", l) {
			pick = l
			break
		}
	}
	if pick == nil {
		t.Fatal("generated topology has no survivable on-path core link; pick another seed")
	}
	cases = append(cases, xvCase{
		name:  "generated",
		graph: gen,
		src:   "E1",
		dst:   "E2",
		fail:  [2]string{pick.A().Name(), pick.B().Name()},
	})
	return cases
}

func stillConnected(g *topology.Graph, src, dst string, without *topology.Link) bool {
	s, _ := g.Node(src)
	d, _ := g.Node(dst)
	visited := map[*topology.Node]bool{s: true}
	stack := []*topology.Node{s}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == d {
			return true
		}
		for i := 0; i < n.Degree(); i++ {
			l, ok := n.PortLink(i)
			if !ok || l == without {
				continue
			}
			if o := l.Other(n); !visited[o] {
				visited[o] = true
				stack = append(stack, o)
			}
		}
	}
	return false
}

func TestClosedFormMatchesSimulation(t *testing.T) {
	for _, tc := range xvCases(t) {
		for _, pol := range []string{"none", "hp", "avp", "nip", "dtree"} {
			t.Run(tc.name+"/"+pol, func(t *testing.T) {
				g, err := tc.graph()
				if err != nil {
					t.Fatal(err)
				}
				policy, err := experiment.PolicyByName(pol)
				if err != nil {
					t.Fatal(err)
				}
				w := experiment.NewWorld(g, policy, 42)
				if tc.path != nil {
					_, err = w.InstallRouteOnPath(tc.path, tc.protection)
				} else {
					_, err = w.InstallRoute(tc.src, tc.dst, tc.protection)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := w.FailLinkBetween(tc.fail[0], tc.fail[1], 0, 0); err != nil {
					t.Fatal(err)
				}

				s, r := udpsim.NewFlow(w.Net, w.Edges[tc.src], w.Edges[tc.dst],
					packet.FlowID{Src: tc.src, Dst: tc.dst}, udpsim.Config{Interval: time.Millisecond})
				sched := w.Net.Scheduler()
				sched.At(0, s.Start)
				sched.At(2*time.Second, s.Stop)
				w.Run(3 * time.Second)
				st := r.Stats(s)
				if st.Sent < 1000 {
					t.Fatalf("only %d packets sent", st.Sent)
				}
				sim := st.DeliveryRatio()

				// The verifier's closed form, on the same controller the
				// simulation routed with.
				l, ok := g.LinkBetween(tc.fail[0], tc.fail[1])
				if !ok {
					t.Fatalf("no %s-%s link", tc.fail[0], tc.fail[1])
				}
				a, err := analysis.New(w.Ctrl, pol, []*topology.Link{l})
				if err != nil {
					t.Fatal(err)
				}
				res, err := a.Analyze(tc.src, tc.dst)
				if err != nil {
					t.Fatal(err)
				}

				pTTL, err := a.DeliverWithin(tc.src, tc.dst, packet.DefaultTTL)
				if err != nil {
					t.Fatal(err)
				}
				// Truncation can only remove trajectory mass, and the
				// removed mass obeys the Markov bound — two internal
				// consistency checks on the exact computation itself.
				const eps = 1e-9
				if pTTL > res.PDeliver+eps {
					t.Errorf("DeliverWithin %.6f exceeds untruncated PDeliver %.6f", pTTL, res.PDeliver)
				}
				if res.PDeliver > 0 {
					if bound := math.Min(1, res.ExpectedHops/float64(packet.DefaultTTL)); res.PDeliver-pTTL > bound+eps {
						t.Errorf("truncated mass %.6f exceeds Markov bound %.6f", res.PDeliver-pTTL, bound)
					}
				}

				// Two-sided band around the exact truncated probability:
				// binomial sampling noise plus a hair for the finite
				// trailing window, nothing else.
				sigma := math.Sqrt(pTTL * (1 - pTTL) / float64(st.Sent))
				slack := 3*sigma + 0.005
				lo, hi := pTTL-slack, pTTL+slack
				if sim < lo || sim > hi {
					t.Errorf("simulated delivery %.4f outside [%.4f, %.4f] around exact TTL-truncated %.4f (untruncated %.4f, E[hops]=%.1f)",
						sim, lo, hi, pTTL, res.PDeliver, res.ExpectedHops)
				}
				t.Log(fmt.Sprintf("exact(ttl)=%.4f closed=%.4f sim=%.4f band=[%.4f,%.4f] E[hops]=%.1f",
					pTTL, res.PDeliver, sim, lo, hi, res.ExpectedHops))
			})
		}
	}
}
