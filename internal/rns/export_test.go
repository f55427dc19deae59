package rns

// Misses returns how many System calls paid full NewSystem validation:
// each one files one canonical entry.
func (c *BasisCache) Misses() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.sorted)
}
