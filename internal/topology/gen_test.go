package topology

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFatTreeShape pins the analytic shape of the k-ary fat-tree:
// k*k pod switches + (k/2)^2 core-layer switches, one host per ToR,
// and the standard link count.
func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{4, 8} {
		g, err := FromSpec(fmt.Sprintf("fattree:%d", k))
		if err != nil {
			t.Fatalf("fattree:%d: %v", k, err)
		}
		half := k / 2
		if got, want := len(g.CoreNodes()), k*k+half*half; got != want {
			t.Errorf("fattree:%d: %d switches, want %d", k, got, want)
		}
		if got, want := len(g.EdgeNodes()), k*half; got != want {
			t.Errorf("fattree:%d: %d hosts, want %d", k, got, want)
		}
		// Hosts + intra-pod (k * half*half) + core uplinks (half^2 * k).
		if got, want := len(g.Links()), k*half+k*half*half+half*half*k; got != want {
			t.Errorf("fattree:%d: %d links, want %d", k, got, want)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("fattree:%d: validate: %v", k, err)
		}
	}
	if _, err := FromSpec("fattree:3"); err == nil {
		t.Error("fattree:3: want error for odd k")
	}
}

// TestFatTreeDatacenterScale pins the 1k-switch configuration the
// scale experiment uses: k=28 gives 980 switches and 392 hosts, with
// every switch ID small enough for the 16-bit batch reducer.
func TestFatTreeDatacenterScale(t *testing.T) {
	if testing.Short() {
		t.Skip("datacenter-scale build")
	}
	g, err := FromSpec("fattree:28")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.CoreNodes()); got != 980 {
		t.Errorf("switches = %d, want 980", got)
	}
	if got := len(g.EdgeNodes()); got != 392 {
		t.Errorf("hosts = %d, want 392", got)
	}
	for _, id := range g.SwitchIDs() {
		if id >= 1<<16 {
			t.Fatalf("switch ID %d does not fit the 16-bit reducer", id)
		}
	}
}

// A generated graph is built per graph, not per element: its nodes,
// links and port tables come from slabs sized from the wire list, so a
// fat tree takes fewer allocations than it has links.
func TestFromSpecAllocatesPerGraph(t *testing.T) {
	g, err := FromSpec("fattree:8")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := FromSpec("fattree:8"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d links", allocs, g.NumLinks())
	if allocs >= float64(g.NumLinks()) {
		t.Errorf("FromSpec(fattree:8) allocated %.0f times, want fewer than its %d links", allocs, g.NumLinks())
	}
}

// BenchmarkFromSpecFatTree28 times the 980-switch generator alone:
// wiring, coprime ID assignment and validation.
func BenchmarkFromSpecFatTree28(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FromSpec("fattree:28"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClosShape: every leaf sees every spine plus one host.
func TestClosShape(t *testing.T) {
	g, err := FromSpec("clos:6:3")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.CoreNodes()); got != 9 {
		t.Errorf("switches = %d, want 9", got)
	}
	if got := len(g.EdgeNodes()); got != 6 {
		t.Errorf("hosts = %d, want 6", got)
	}
	if got := len(g.Links()); got != 6+6*3 {
		t.Errorf("links = %d, want %d", got, 6+6*3)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			if _, ok := g.LinkBetween("L0", "S0"); !ok {
				t.Fatalf("missing leaf-spine link L%d-S%d", i, j)
			}
		}
	}
}

// TestISPShape: m links per non-seed switch, hosts spread across the
// insertion order, connected and valid.
func TestISPShape(t *testing.T) {
	g, err := FromSpec("isp:50:2:10:42")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.CoreNodes()); got != 50 {
		t.Errorf("switches = %d, want 50", got)
	}
	if got := len(g.EdgeNodes()); got != 10 {
		t.Errorf("hosts = %d, want 10", got)
	}
	// Seed clique m+1=3 has 3 links; 47 more switches add 2 each.
	if got, want := len(g.Links()), 10+3+47*2; got != want {
		t.Errorf("links = %d, want %d", got, want)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

// TestGeneratorDeterminism: building the same spec twice yields the
// same fingerprint, and different parameters/seeds yield different
// ones. The fingerprint covers names, kinds, IDs, ports, and link
// attributes, so this is full structural identity.
func TestGeneratorDeterminism(t *testing.T) {
	specs := []string{
		"fattree:4", "fattree:8",
		"clos:6:3", "clos:8:4",
		"isp:40:2:8:1", "isp:40:2:8:2", "isp:60:3:8:1",
		"rand:12:4:6:9",
	}
	seen := make(map[string]string)
	for _, spec := range specs {
		a, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("FromSpec(%q): %v", spec, err)
		}
		b, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("FromSpec(%q) second build: %v", spec, err)
		}
		fa, fb := a.Fingerprint(), b.Fingerprint()
		if fa != fb {
			t.Errorf("%q: rebuild changed fingerprint: %s vs %s", spec, fa, fb)
		}
		if prev, dup := seen[fa]; dup {
			t.Errorf("%q and %q collide on fingerprint %s", spec, prev, fa)
		}
		seen[fa] = spec
	}
}

// TestGeneratorFingerprintGolden pins every generator's output — node
// names, kinds, IDs, ports and link attributes — to hashes taken before
// the four generators shared one builder.
func TestGeneratorFingerprintGolden(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{"fattree:2", "ad7e906c6e05e4f2"},
		{"fattree:4", "134dcd4a1c2ede74"},
		{"fattree:8", "df887d9b0e03011f"},
		{"fattree:28", "4e9b5232edeb2c70"},
		{"clos:2:1", "38b09e60116d99ad"},
		{"clos:6:3", "f86cb2678a819e44"},
		{"clos:8:4", "49c1bb3fa67ee843"},
		{"clos:64:16", "031cf082238e27bd"},
		{"isp:9:2:2:1", "452d9c5221f61a71"},
		{"isp:40:2:8:1", "3f7536fd2dc3567b"},
		{"isp:60:3:8:1", "367d3aab26fb3ead"},
		{"isp:200:2:40:7", "2bcd35497986ea89"},
		{"rand:2:0:2:1", "947bd732fb74942f"},
		{"rand:12:4:6:9", "d6d37970b9a0b662"},
		{"rand:24:36:10:7", "16fd5d45c567aa13"},
		{"rand:50:40:4:4", "5b708f5cfdafcb5c"},
		{"rand:5:2:3:11", "5a29738c7cb10b24"},
		{"rand:48:72:12:5", "5ddeef56253dd361"},
	} {
		g, err := FromSpec(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if got := g.Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.spec, got, c.want)
		}
	}
}

// TestFromSpecErrors: malformed specs fail loudly instead of building
// something surprising.
func TestFromSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"fattree", "fattree:x", "fattree:4:4",
		"clos:2", "isp:10:1:2", "rand:3:1:2", "mesh:4", "",
	} {
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("FromSpec(%q): want error", spec)
		}
	}
	// A spec past MaxSpecSwitches is refused before anything is sized from
	// it, whichever number carries it; at the limit it builds.
	for _, spec := range []string{
		"fattree:100000", "fattree:58", "fattree:4294967296", "clos:4000:97",
		"clos:9223372036854775807:9223372036854775807", "isp:4097:2:40:7",
		"isp:100:5000:40:7", "rand:4097:0:2:1", "rand:100:99999:4:1",
	} {
		if _, err := FromSpec(spec); err == nil || !strings.Contains(err.Error(), "exceeds the limit of 4096") {
			t.Errorf("FromSpec(%q): %v, want an error naming the limit", spec, err)
		}
	}
	// Inside the switch limit, a spec past MaxSpecLinks is refused too.
	for _, spec := range []string{
		"clos:4000:96", "clos:2048:2048", "isp:2048:512:16:1",
		"isp:4096:64:2081:1",
	} {
		if _, err := FromSpec(spec); err == nil || !strings.Contains(err.Error(), "exceed the limit of 262144") {
			t.Errorf("FromSpec(%q): %v, want an error naming the link limit", spec, err)
		}
	}
	// At both limits it builds: 4096 switches, 64·8191/2 fabric links
	// and 2080 host links.
	if g, err := FromSpec("isp:4096:64:2080:1"); err != nil || len(g.CoreNodes()) != MaxSpecSwitches || g.NumLinks() != MaxSpecLinks {
		t.Errorf("FromSpec(isp:4096:64:2080:1): %v, want %d switches and %d links", err, MaxSpecSwitches, MaxSpecLinks)
	}
	for spec, want := range map[string]bool{
		"fattree:4": true, "clos:4:2": true, "isp:9:2:2:1": true,
		"rand:4:0:2:1": true, "fig1": false, "rnp28": false, "mesh:4": false,
	} {
		if got := IsSpec(spec); got != want {
			t.Errorf("IsSpec(%q) = %v, want %v", spec, got, want)
		}
	}
}

// TestProtectionResolver: every (topology, level) a user can name
// resolves to the canned set, to auto, to nothing, or to an error.
func TestProtectionResolver(t *testing.T) {
	for _, c := range []struct {
		topo, level string
		pairs       [][2]string
		auto, fail  bool
	}{
		{topo: "net15", level: ""},
		{topo: "net15", level: "none"},
		{topo: "net15", level: "unprotected"},
		{topo: "net15", level: "partial", pairs: Net15PartialProtection},
		{topo: "net15", level: "full", pairs: Net15FullProtection},
		{topo: "rnp28", level: "partial", pairs: RNP28PartialProtection},
		{topo: "rnp28-fig8", level: "partial", pairs: RNP28PartialProtection},
		{topo: "net15", level: "auto", auto: true},
		{topo: "fattree:4", level: "auto", auto: true},
		{topo: "fattree:4", level: "none"},
		{topo: "rnp28", level: "full", fail: true},
		{topo: "fig1", level: "partial", fail: true},
		{topo: "fattree:4", level: "partial", fail: true},
		{topo: "net15", level: "total", fail: true},
	} {
		pairs, auto, err := Protection(c.topo, c.level)
		if (err != nil) != c.fail || auto != c.auto || len(pairs) != len(c.pairs) {
			t.Errorf("Protection(%q, %q) = %d pairs, auto=%v, err=%v; want %d pairs, auto=%v, error=%v",
				c.topo, c.level, len(pairs), auto, err, len(c.pairs), c.auto, c.fail)
		}
		if len(pairs) > 0 && &pairs[0] != &c.pairs[0] {
			t.Errorf("Protection(%q, %q) resolved to the wrong set", c.topo, c.level)
		}
	}
	if _, _, err := Protection("fattree:4", "full"); err == nil || !strings.Contains(err.Error(), "generated topologies") {
		t.Errorf("canned level on a generated topology: %v", err)
	}
}

// TestPartitionRegionsFatTree: contiguous chunking over the pod-major
// insertion order balances the regions by weight (a switch plus its
// hosts) to within one pod's weight, hosts land with their ToR's
// region, and every region is non-empty.
func TestPartitionRegionsFatTree(t *testing.T) {
	for _, c := range []struct {
		k      int
		shards []int
	}{{4, []int{1, 2, 4}}, {28, []int{2, 4}}} {
		g, err := FromSpec(fmt.Sprintf("fattree:%d", c.k))
		if err != nil {
			t.Fatal(err)
		}
		pod := c.k + c.k/2 // k switches and k/2 hosts
		for _, shards := range c.shards {
			regions := PartitionRegions(g, shards)
			if len(regions) != len(g.Nodes()) {
				t.Fatalf("k=%d shards=%d: %d region entries, want %d", c.k, shards, len(regions), len(g.Nodes()))
			}
			// Every host sits in its switch's region, so a region's
			// weight is the number of nodes in it.
			weight := make([]int, shards)
			for _, r := range regions {
				if r < 0 || r >= shards {
					t.Fatalf("k=%d shards=%d: region %d out of range", c.k, shards, r)
				}
				weight[r]++
			}
			ideal := float64(len(g.Nodes())) / float64(shards)
			for r, w := range weight {
				if w == 0 {
					t.Errorf("k=%d shards=%d: region %d is empty", c.k, shards, r)
				}
				if d := float64(w) - ideal; d > float64(pod) || d < -float64(pod) {
					t.Errorf("k=%d shards=%d: region %d weighs %d, more than a pod (%d) from the ideal %.1f",
						c.k, shards, r, w, pod, ideal)
				}
			}
			// Host region == its ToR's region: the access link is never
			// a cut link, so host traffic enters the fabric in-shard.
			for _, h := range g.EdgeNodes() {
				tor, ok := h.Neighbor(0)
				if !ok {
					t.Fatalf("host %s has no uplink", h.Name())
				}
				if regions[h.Index()] != regions[tor.Index()] {
					t.Errorf("k=%d shards=%d: host %s in region %d, its ToR %s in region %d",
						c.k, shards, h.Name(), regions[h.Index()], tor.Name(), regions[tor.Index()])
				}
			}
		}
	}
}

// TestGeneratedLinkDelaysPositive: conservative sharding derives its
// lookahead from the minimum cross-region link delay, so generated
// fabrics must never emit a zero-delay link.
func TestGeneratedLinkDelaysPositive(t *testing.T) {
	for _, spec := range []string{"fattree:4", "clos:4:2", "isp:10:2:4:3"} {
		g, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range g.Links() {
			if l.Delay() <= 0 {
				t.Errorf("%s: link %s has delay %v", spec, l.Name(), time.Duration(l.Delay()))
			}
		}
	}
}

func TestGenerateValidAndDeterministic(t *testing.T) {
	for _, c := range []struct {
		spec         string
		cores, edges int
	}{
		{"rand:2:0:2:1", 2, 2},
		{"rand:10:5:2:2", 10, 2},
		{"rand:28:12:3:3", 28, 3},
		{"rand:50:40:4:4", 50, 4},
	} {
		g, err := FromSpec(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", c.spec, err)
		}
		if got := len(g.CoreNodes()); got != c.cores {
			t.Errorf("%s: cores = %d, want %d", c.spec, got, c.cores)
		}
		if got := len(g.EdgeNodes()); got != c.edges {
			t.Errorf("%s: edges = %d, want %d", c.spec, got, c.edges)
		}
		// Determinism: same seed, same graph.
		g2, err := FromSpec(c.spec)
		if err != nil {
			t.Fatalf("%s again: %v", c.spec, err)
		}
		if g.Fingerprint() != g2.Fingerprint() {
			t.Errorf("%s not deterministic", c.spec)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := FromSpec("rand:1:0:0:0"); err == nil {
		t.Error("accepted a single-core config")
	}
	if _, err := FromSpec("rand:4:0:9:0"); err == nil {
		t.Error("accepted more edges than cores")
	}
}

// TestGeneratedTopologyRoutes: a generated graph supports end-to-end
// routing and encoding out of the box.
func TestGeneratedTopologyRoutes(t *testing.T) {
	g, err := FromSpec("rand:20:15:2:9")
	if err != nil {
		t.Fatal(err)
	}
	edges := g.EdgeNodes()
	p, err := ShortestPath(g, edges[0].Name(), edges[1].Name(), nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if p.Hops() < 2 {
		t.Errorf("path %s too short", p)
	}
}
