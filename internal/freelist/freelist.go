// Package freelist is the simulator's two-tier recycling: a Cache owned
// by one simulation lane (a slice pop and push, no locks) in front of a
// Depot shared by the whole process. A full cache hands half of itself
// to the depot and an empty one takes a batch back, so items that travel
// from one lane to another find their way home, and a finished world's
// lanes leave theirs there for the next world. Unlike a sync.Pool, a
// depot is not emptied by the garbage collector: how many objects a run
// allocates does not depend on when the collector last ran.
package freelist

import "sync"

// Depot is the shared tier: a locked stack of free items. It keeps at
// most limit of them and leaves the rest to the collector; cacheSize
// bounds every Cache that trades with it.
type Depot[T any] struct {
	mu        sync.Mutex
	free      []T
	limit     int
	cacheSize int
}

// NewDepot returns an empty depot that keeps at most limit items, for
// caches of cacheSize items each.
func NewDepot[T any](limit, cacheSize int) *Depot[T] {
	return &Depot[T]{limit: limit, cacheSize: cacheSize}
}

// Len returns the number of items the depot holds.
func (d *Depot[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.free)
}

// Deposit moves xs into the depot, as many as fit.
func (d *Depot[T]) Deposit(xs []T) {
	d.mu.Lock()
	room := d.limit - len(d.free)
	d.free = append(d.free, xs[:min(room, len(xs))]...)
	d.mu.Unlock()
}

// Withdraw appends up to n items from the depot to dst.
func (d *Depot[T]) Withdraw(dst []T, n int) []T {
	d.mu.Lock()
	rest := len(d.free) - min(n, len(d.free))
	dst = append(dst, d.free[rest:]...)
	clear(d.free[rest:])
	d.free = d.free[:rest]
	d.mu.Unlock()
	return dst
}

// Cache is a free list owned by one simulation lane: only the goroutine
// driving the lane may use it. An item may be put into a different
// lane's cache than the one it came from; the depot evens out the
// imbalance. The zero Cache is ready to use.
type Cache[T any] struct {
	free []T
}

// Get pops a free item, refilling an empty cache with half a cache's
// worth from d first; ok is false when d had none either.
func (c *Cache[T]) Get(d *Depot[T]) (x T, ok bool) {
	if len(c.free) == 0 {
		if c.free = d.Withdraw(c.free, d.cacheSize/2); len(c.free) == 0 {
			return x, false
		}
	}
	n := len(c.free) - 1
	x = c.free[n]
	c.free = c.free[:n]
	return x, true
}

// Put pushes a free item, handing half the cache to d first when it is
// full.
func (c *Cache[T]) Put(d *Depot[T], x T) {
	if len(c.free) >= d.cacheSize {
		c.spillFrom(d, d.cacheSize/2)
	}
	c.free = append(c.free, x)
}

// Spill hands every cached item to d.
func (c *Cache[T]) Spill(d *Depot[T]) { c.spillFrom(d, 0) }

// spillFrom moves c.free[i:] to d.
func (c *Cache[T]) spillFrom(d *Depot[T], i int) {
	d.Deposit(c.free[i:])
	clear(c.free[i:])
	c.free = c.free[:i]
}
