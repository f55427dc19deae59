//go:build race

package simnet

// raceEnabled: wall-time bounds are loosened under the race detector.
const raceEnabled = true
