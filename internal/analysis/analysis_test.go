package analysis_test

import (
	"errors"
	"math"
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

func fig1Ctrl(t *testing.T, protected bool) (*controller.Controller, *topology.Graph) {
	t.Helper()
	g, err := topology.Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	ctrl := controller.New(g)
	var prot []core.Hop
	if protected {
		prot, err = core.HopsFromPairs(g, [][2]string{{"SW5", "SW11"}})
		if err != nil {
			t.Fatalf("HopsFromPairs: %v", err)
		}
	}
	if _, err := ctrl.InstallRoute("S", "D", prot); err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	return ctrl, g
}

// net15Ctrl installs the full-protection AS1→AS3 route on a Net15
// controller (shared by the multi-failure analysis tests).
func net15Ctrl(t *testing.T, g *topology.Graph) *controller.Controller {
	t.Helper()
	ctrl := controller.New(g)
	prot, err := core.HopsFromPairs(g, topology.Net15FullProtection)
	if err != nil {
		t.Fatalf("HopsFromPairs: %v", err)
	}
	if _, err := ctrl.InstallRoute("AS1", "AS3", prot); err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	return ctrl
}

func failLinks(t *testing.T, g *topology.Graph, pairs ...[2]string) []*topology.Link {
	t.Helper()
	var out []*topology.Link
	for _, p := range pairs {
		l, ok := g.LinkBetween(p[0], p[1])
		if !ok {
			t.Fatalf("no link %s-%s", p[0], p[1])
		}
		out = append(out, l)
	}
	return out
}

func TestHealthyPathExact(t *testing.T) {
	for _, policy := range []string{"none", "hp", "avp", "nip"} {
		t.Run(policy, func(t *testing.T) {
			ctrl, _ := fig1Ctrl(t, false)
			a, err := analysis.New(ctrl, policy, nil)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := a.Analyze("S", "D")
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if res.PDeliver != 1 {
				t.Errorf("PDeliver = %v, want 1", res.PDeliver)
			}
			if res.ExpectedHops != 4 {
				t.Errorf("ExpectedHops = %v, want 4", res.ExpectedHops)
			}
			if res.Stretch() != 1 {
				t.Errorf("Stretch = %v, want 1", res.Stretch())
			}
		})
	}
}

func TestNoneDropsUnderFailure(t *testing.T) {
	ctrl, g := fig1Ctrl(t, false)
	a, err := analysis.New(ctrl, "none", failLinks(t, g, [2]string{"SW7", "SW11"}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := a.Analyze("S", "D")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.PDeliver != 0 {
		t.Errorf("PDeliver = %v, want 0", res.PDeliver)
	}
}

// TestProtectedNIPExact: the Fig. 1(b) driven deflection is fully
// deterministic under NIP — delivery probability 1 in exactly 5 hops.
func TestProtectedNIPExact(t *testing.T) {
	ctrl, g := fig1Ctrl(t, true)
	a, err := analysis.New(ctrl, "nip", failLinks(t, g, [2]string{"SW7", "SW11"}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := a.Analyze("S", "D")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if math.Abs(res.PDeliver-1) > 1e-9 {
		t.Errorf("PDeliver = %v, want 1", res.PDeliver)
	}
	if math.Abs(res.ExpectedHops-5) > 1e-9 {
		t.Errorf("ExpectedHops = %v, want exactly 5", res.ExpectedHops)
	}
}

// TestProtectedAVPExpectedHops: under AVP the walk can bounce
// SW7→SW4→SW7; first-step analysis gives E[hops] = 7 exactly:
// at SW7, 1/2 straight to SW5 (5 hops total), 1/2 into a
// SW4-bounce that returns to SW7 two hops later (mod 4 sends it
// straight back), i.e. E = 5 + 2·E[bounces], E[bounces] = 1.
func TestProtectedAVPExpectedHops(t *testing.T) {
	ctrl, g := fig1Ctrl(t, true)
	a, err := analysis.New(ctrl, "avp", failLinks(t, g, [2]string{"SW7", "SW11"}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := a.Analyze("S", "D")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if math.Abs(res.PDeliver-1) > 1e-9 {
		t.Errorf("PDeliver = %v, want 1", res.PDeliver)
	}
	if math.Abs(res.ExpectedHops-7) > 1e-9 {
		t.Errorf("ExpectedHops = %v, want exactly 7", res.ExpectedHops)
	}
}

// TestFig8RetryLoopExact reproduces §3.2's Fig. 8 analysis in closed
// form: failure SW73–SW107 leaves {SW109, SW71} at probability 1/2;
// the SW71 branch costs 4 extra traversals and returns to the same
// decision. E[hops] = 7 + 4·1 = 11, delivery probability 1.
func TestFig8RetryLoopExact(t *testing.T) {
	g, err := topology.RNP28Fig8()
	if err != nil {
		t.Fatalf("RNP28Fig8: %v", err)
	}
	ctrl := controller.New(g)
	prot, err := core.HopsFromPairs(g, topology.RNP28Fig8Protection)
	if err != nil {
		t.Fatalf("HopsFromPairs: %v", err)
	}
	if _, err := ctrl.InstallRouteOnPath(topology.RNP28Fig8Route, prot); err != nil {
		t.Fatalf("InstallRouteOnPath: %v", err)
	}
	a, err := analysis.New(ctrl, "nip", failLinks(t, g, [2]string{"SW73", "SW107"}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := a.Analyze("EDGE-N", "EDGE-SUL")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if math.Abs(res.PDeliver-1) > 1e-9 {
		t.Errorf("PDeliver = %v, want 1 (the loop converges almost surely)", res.PDeliver)
	}
	if math.Abs(res.ExpectedHops-11) > 1e-9 {
		t.Errorf("ExpectedHops = %v, want exactly 11 (7 nominal + E[1 retry]·4)", res.ExpectedHops)
	}
	if math.Abs(res.Stretch()-11.0/7.0) > 1e-9 {
		t.Errorf("Stretch = %v, want 11/7", res.Stretch())
	}
}

// TestAnalysisMatchesSimulation cross-validates the analytic expected
// hops against the measured mean over a long CBR run, for a scenario
// with genuine randomness (unprotected AVP on Fig. 1).
func TestAnalysisMatchesSimulation(t *testing.T) {
	ctrl, g := fig1Ctrl(t, false)
	a, err := analysis.New(ctrl, "avp", failLinks(t, g, [2]string{"SW7", "SW11"}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, err := a.Analyze("S", "D")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}

	// Simulate the same scenario.
	gSim, err := topology.Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	policy, _ := deflect.ByName("avp")
	w := experiment.NewWorld(gSim, policy, 99)
	if _, err := w.InstallRoute("S", "D", nil); err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	l, _ := gSim.LinkBetween("SW7", "SW11")
	w.Net.FailLink(l)
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, recv := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{
		Interval: time.Millisecond, Count: 4000,
	})
	send.Start()
	w.Run(30 * time.Second)
	st := recv.Stats(send)
	if st.Received < 3900 {
		t.Fatalf("received %d/4000; too much loss for a fair comparison", st.Received)
	}
	if diff := math.Abs(st.MeanHops() - want.ExpectedHops); diff > 0.25 {
		t.Errorf("simulated mean hops %.3f vs analytic %.3f (|diff| %.3f > 0.25)",
			st.MeanHops(), want.ExpectedHops, diff)
	}
}

func TestUnsupportedPolicy(t *testing.T) {
	ctrl, _ := fig1Ctrl(t, false)
	if _, err := analysis.New(ctrl, "bogus", nil); !errors.Is(err, analysis.ErrPolicyUnsupported) {
		t.Errorf("error = %v, want ErrPolicyUnsupported", err)
	}
}

func TestAnalyzeUnknownRoute(t *testing.T) {
	ctrl, _ := fig1Ctrl(t, false)
	a, err := analysis.New(ctrl, "nip", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := a.Analyze("D", "S"); err == nil {
		t.Error("Analyze succeeded for an uninstalled route")
	}
}
