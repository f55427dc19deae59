//go:build race

package experiment

// raceEnabled: under the race detector sync.Pool deliberately drops
// values, so allocation budgets over pooled packets do not hold there.
const raceEnabled = true
