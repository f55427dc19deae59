package topology

// PartitionRegions assigns every node of g to one of n regions for
// sharded simulation (simnet.WithShards). The assignment is a pure
// function of the graph's insertion order and n — no randomness, no
// map iteration — so every run, on any machine, partitions a given
// topology identically:
//
//   - Core nodes (switches) are split into n contiguous chunks of their
//     insertion order, balanced by weight: a core weighs 1 plus the
//     edge nodes (hosts) attached to it, because a host's pumps,
//     injections and receptions run on its core's lane. The next region
//     opens at the first core whose preceding cores weigh at least its
//     share of the total (i/n for region i), or where only one core is
//     left for each region after it, so every region holds at least
//     one core. With no hosts this is the even split by count. Generators emit
//     cores in locality order (a fat-tree pod's switches are adjacent,
//     a random graph's neighborhoods are index-clustered), so
//     contiguous chunks keep most links intra-region without a
//     partitioning solver, though a cut may fall inside a pod.
//   - Edge nodes follow the lowest-indexed core they attach to: an
//     edge and its ToR always share a region, so the host access link
//     (the shortest-delay link class) never becomes a cut link and
//     never drags the conservative lookahead window down.
//   - Nodes attached to no core (degenerate graphs) land in region 0.
//
// The returned slice maps Node.Index() to region in [0, n). n is
// clamped to [1, number of cores]; n ≤ 1 yields all zeros.
func PartitionRegions(g *Graph, n int) []int {
	nodes := g.Nodes()
	out := make([]int, len(nodes))
	cores := g.CoreNodes()
	if n > len(cores) {
		n = len(cores)
	}
	if n <= 1 {
		return out
	}
	// Until the cut, out holds a core's weight and an edge node's home:
	// its lowest-indexed adjacent core, -1 for none.
	total := len(cores)
	for _, c := range cores {
		out[c.Index()] = 1
	}
	for _, node := range nodes {
		if node.Kind() == KindCore {
			continue
		}
		home := -1
		for p := 0; p < node.PortSpan(); p++ {
			nb, ok := node.Neighbor(p)
			if ok && nb.Kind() == KindCore && (home == -1 || nb.Index() < home) {
				home = nb.Index()
			}
		}
		out[node.Index()] = home
		if home >= 0 {
			out[home]++
			total++
		}
	}
	region, before := 0, 0
	for i, c := range cores {
		if region < n-1 && (before*n >= (region+1)*total || len(cores)-i == n-1-region) {
			region++
		}
		before += out[c.Index()]
		out[c.Index()] = region
	}
	for _, node := range nodes {
		if node.Kind() == KindCore {
			continue
		}
		if home := out[node.Index()]; home >= 0 {
			out[node.Index()] = out[home]
		} else {
			out[node.Index()] = 0
		}
	}
	return out
}
