package kswitch

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/packet"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Switch i's generator is rand.NewSource(base + i·seedStride)'s stream,
// whatever mix of draws the policy makes.
func TestLazySourceMatchesNewSource(t *testing.T) {
	g, err := topology.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []int64{0, 1, -3, 1 << 40} {
		net := simnet.New(g)
		sws := install(net, g.CoreNodes(), deflect.NotInputPort{}, base)
		for k := range sws {
			seed := base + int64(k)*seedStride
			lazy := rand.New(&sws[k].rng)
			ref := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				var got, want any
				switch i % 5 {
				case 0:
					got, want = lazy.Intn(i+1), ref.Intn(i+1)
				case 1:
					got, want = lazy.Int63(), ref.Int63()
				case 2:
					got, want = lazy.Uint64(), ref.Uint64()
				case 3:
					got, want = lazy.Float64(), ref.Float64()
				case 4:
					got, want = lazy.Perm(i%7+1), ref.Perm(i%7+1)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d draw %d: %v, want %v", seed, i, got, want)
				}
			}
		}
	}
}

// A healthy path draws nothing: every switch's source is still the
// freshly seeded one. A scalar deflection draws from it.
func TestLazySourceUnseededUntilDrawn(t *testing.T) {
	w := newWorld(t, deflect.NotInputPort{}, false)
	w.inject(20)
	w.run(time.Second)
	if len(w.received) != 20 {
		t.Fatalf("healthy world delivered %d of 20", len(w.received))
	}
	for i, n := range w.net.Topology().CoreNodes() {
		var fresh xrand.Source
		fresh.Seed(1 + int64(i)*seedStride)
		if w.switches[n.Name()].rng != fresh {
			t.Errorf("%s drew from its source on a healthy path", n.Name())
		}
	}
	// Route ID 0 encodes port 0, the input port: NIP deflects and draws.
	sw := w.switches["SW4"]
	before := sw.rng
	sw.HandlePacket(&packet.Packet{Flow: packet.FlowID{Src: "S", Dst: "D"}, TTL: 8}, 0)
	if sw.Stats().Deflections != 1 {
		t.Fatalf("SW4 deflections = %d, want 1", sw.Stats().Deflections)
	}
	if sw.rng == before {
		t.Error("a scalar deflection did not draw from the switch's source")
	}
}

// install registers a block of one per family, and switches installed
// one at a time dump exactly like switches built by InstallAll.
func TestNewMatchesInstallAll(t *testing.T) {
	dump := func(build func(*simnet.Network)) string {
		g, err := topology.Fig1()
		if err != nil {
			t.Fatal(err)
		}
		net := simnet.New(g, simnet.WithMetricLabels("policy", "nip"))
		build(net)
		var b bytes.Buffer
		if err := net.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	all := dump(func(net *simnet.Network) { InstallAll(net, deflect.NotInputPort{}, 1) })
	single := dump(func(net *simnet.Network) {
		for i, n := range net.Topology().CoreNodes() {
			install(net, []*topology.Node{n}, deflect.NotInputPort{}, 1+int64(i)*seedStride)
		}
	})
	if all != single {
		t.Errorf("dumps differ:\nInstallAll:\n%s\none at a time:\n%s", all, single)
	}
	if n := strings.Count(all, "\nkar_switch_deflections_total{"); n != 4*causeCount {
		t.Errorf("%d deflection series for 4 switches, want %d", n, 4*causeCount)
	}
}

// Allocation budget of the switch-and-link layer of a large world:
// simnet.New + InstallAll over fattree:28 (980 switches, 11 368 links,
// 2 shards). The parent commit allocated 1 084 472 times here — nine
// label sets, keys and boxed series per link, eight per switch, a
// seeded generator per switch; this measures 29 759 (a Line and two
// train buffers per link). The ceiling is 1/24 of the parent's count.
func TestFatTreeConstructionAllocationBudget(t *testing.T) {
	g, err := topology.FromSpec("fattree:28")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		net := simnet.New(g, simnet.WithShards(2))
		InstallAll(net, deflect.NotInputPort{}, 7)
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 45000 {
		t.Errorf("simnet.New + InstallAll over fattree:28 allocated %.0f times, budget 45000", allocs)
	}
}
