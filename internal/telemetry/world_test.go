package telemetry_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/experiment"
	"repro/internal/tcpsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Real Net15 worlds of the Fig. 5 kind — two of them on one policy, so
// one folds into series the other filed — dump the same Prometheus and
// JSON bytes whichever order they are merged in.
func TestCollectorNet15WorldsEitherOrder(t *testing.T) {
	var worlds []*telemetry.Registry
	for i, policy := range []string{"nip", "hp", "dtree", "nip"} {
		res, err := experiment.RunTCP(experiment.TCPRunConfig{
			Graph: topology.Net15, Policy: policy, Seed: int64(i), Src: "AS1", Dst: "AS3",
			Protection: topology.Net15FullProtection, ReverseBitBudget: 41,
			Failures: []experiment.FailureSpec{{A: "SW7", B: "SW13", From: 100 * time.Millisecond, Duration: 100 * time.Millisecond}},
			Duration: 300 * time.Millisecond, TCP: tcpsim.Config{MaxCwnd: 256},
		})
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, res.Metrics)
	}
	expose := func(order ...int) [2]string {
		c := telemetry.NewCollector()
		for _, i := range order {
			c.Add(fmt.Sprint("run", i), worlds[i], nil)
		}
		var prom, js bytes.Buffer
		if err := c.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return [2]string{prom.String(), js.String()}
	}
	fwd, rev := expose(0, 1, 2, 3), expose(3, 1, 0, 2)
	if fwd[0] != rev[0] {
		t.Errorf("Prometheus dump depends on merge order:\n--- fwd\n%s--- rev\n%s", fwd[0], rev[0])
	}
	if fwd[1] != rev[1] {
		t.Errorf("JSON dump depends on merge order:\n--- fwd\n%s--- rev\n%s", fwd[1], rev[1])
	}
	if !strings.Contains(fwd[0], `kar_switch_deflections_total{cause="port-down",policy="nip",switch="SW7"}`) {
		t.Errorf("dump lacks SW7's port-down deflections:\n%s", fwd[0])
	}
}

// BenchmarkCollectorAddNet15World times folding one freshly built Net15
// world, every series still unkeyed, into a collector that already
// holds a world of that shape: the per-world cost of a -metrics sweep.
func BenchmarkCollectorAddNet15World(b *testing.B) {
	g, err := topology.Net15()
	if err != nil {
		b.Fatal(err)
	}
	world := func(seed int64) *telemetry.Registry {
		w := experiment.NewWorld(g, deflect.NotInputPort{}, seed)
		if _, err := w.InstallRoute("AS1", "AS3", topology.Net15FullProtection); err != nil {
			b.Fatal(err)
		}
		return w.Net.Metrics()
	}
	c := telemetry.NewCollector()
	c.Add("first", world(0), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg := world(int64(i))
		b.StartTimer()
		c.Add("run", reg, nil)
	}
}
