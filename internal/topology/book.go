package topology

import "sync"

// routeBookCap bounds a graph's route book: once it holds this many
// entries, Put books nothing more.
const routeBookCap = 1024

// RouteBook is a graph's memo of the routes encoded over it, each
// under a key its caller (the controller) derives from the route's
// inputs. A route is a pure function of the graph and those inputs,
// so every controller on a shared graph may reuse one; the caller
// compares a found route against its inputs in full, and a collision
// or a full book is only a miss. It is safe for concurrent use and
// lives and dies with its graph.
type RouteBook struct {
	mu sync.Mutex
	m  map[uint64]any
}

// RouteBook returns the graph's route book.
func (g *Graph) RouteBook() *RouteBook { return &g.book }

// Get returns the route booked under key.
func (b *RouteBook) Get(key uint64) (any, bool) {
	b.mu.Lock()
	v, ok := b.m[key]
	b.mu.Unlock()
	return v, ok
}

// Put books v under key unless the key is taken or the book is full.
// The map grows as routes are booked: a graph that books a few routes
// (a Fig. 5 cell's, a scenario's) pays for a few.
func (b *RouteBook) Put(key uint64, v any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m == nil {
		b.m = make(map[uint64]any)
	}
	if _, taken := b.m[key]; !taken && len(b.m) < routeBookCap {
		b.m[key] = v
	}
}
