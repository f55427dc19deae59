package topology

import "sync"

// GraphCache is a small bounded keyed cache of built graphs. Graphs
// are immutable once constructed — nodes, ports, links and switch IDs
// never change after the builder returns, and all runtime state
// (link up/down, queues, detection) lives in simnet — so one cached
// *Graph is safe to share across many concurrent worlds. The daemon
// leans on this: every job on "fattree:28" reuses one construction
// (and therefore one blocked-coprime ID allocation) instead of paying
// it per job, and every job's controller reuses the routes earlier
// ones encoded (the graph's RouteBook, a memo behind its own lock).
//
// Eviction is least-recently-used at a fixed capacity; the cache is
// a pure wall-clock optimization and never changes results, because a
// cached graph is byte-for-byte the graph the builder would have
// produced (builders are deterministic per key).
type GraphCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*Graph
	// order tracks recency, most recent last.
	order []string
}

// NewGraphCache builds a cache bounded to capacity entries (minimum 1).
func NewGraphCache(capacity int) *GraphCache {
	if capacity < 1 {
		capacity = 1
	}
	return &GraphCache{cap: capacity, m: make(map[string]*Graph, capacity)}
}

// Get returns the graph cached under key, calling build on a miss.
// Concurrent callers may race to build the same key; the first stored
// wins and later duplicates are discarded — builders are deterministic,
// so the discarded graph is identical to the kept one.
func (c *GraphCache) Get(key string, build func() (*Graph, error)) (*Graph, error) {
	c.mu.Lock()
	if g, ok := c.m[key]; ok {
		c.touch(key)
		c.mu.Unlock()
		return g, nil
	}
	c.mu.Unlock()

	g, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.m[key]; ok {
		c.touch(key)
		return cached, nil
	}
	if len(c.m) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
	c.m[key] = g
	c.order = append(c.order, key)
	return g, nil
}

// touch moves key to the most-recent position. Caller holds mu.
func (c *GraphCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
}

// SharedGraphs is the process-wide graph cache used by the scenario
// engine and the serve daemon. Sized to hold every canned topology
// plus a healthy working set of generator specs.
var SharedGraphs = NewGraphCache(64)
