package controller

// Routes returns the number of installed routes.
func (c *Controller) Routes() int { return len(c.entries) }

// reinstallAll recomputes every installed route under the current
// failure set — the from-scratch fallback incremental reaction is
// checked against: after any fail/repair sequence it must be a no-op.
func (c *Controller) reinstallAll() error {
	all := make([]pair, 0, len(c.entries))
	for k := range c.entries {
		all = append(all, k)
	}
	sortPairs(all)
	return c.reroute(all)
}
