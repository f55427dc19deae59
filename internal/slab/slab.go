// Package slab cuts many small objects from a few large allocations.
package slab

// Cut returns the next n elements of *s as a slice of capacity n. Cut
// elements never move: a slab too short for n is replaced by a fresh
// chunk of at least twice its capacity (and 8), its tail left unused.
func Cut[T any](s *[]T, n int) []T {
	c := *s
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(n, 2*cap(c), 8))
	}
	*s = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}
