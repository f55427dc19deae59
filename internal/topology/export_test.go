package topology

import (
	"fmt"
	"hash/fnv"
)

// Fingerprint returns a stable hash of the graph's full structure —
// node names, kinds and IDs, plus every link's endpoints, ports, rate,
// delay and queue depth. Two calls on structurally identical graphs
// (same generator, same parameters, same seed) return the same value;
// determinism tests byte-compare it across rebuilds.
func (g *Graph) Fingerprint() string {
	h := fnv.New64a()
	for _, n := range g.Nodes() {
		fmt.Fprintf(h, "n|%s|%d|%d|%d\n", n.Name(), n.Kind(), n.ID(), n.PortSpan())
	}
	for _, l := range g.Links() {
		fmt.Fprintf(h, "l|%s|%d|%s|%d|%g|%d|%d\n",
			l.A().Name(), l.PortOf(l.A()), l.B().Name(), l.PortOf(l.B()),
			l.RateMbps(), l.Delay(), l.QueuePackets())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Len returns the number of cached graphs.
func (c *GraphCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
