package simnet

import (
	"testing"
	"unsafe"
)

// TestLineLayoutSeparatesWriters pins the cache-line grouping the
// sharded driver relies on: on a cut link the receiving lane reads the
// Line header and a direction's construction-time fields while the
// sending lane writes that direction's queue state, counters and train,
// so the groups must start on 64-byte boundaries (Line's size class
// keeps the struct itself 64-byte aligned on the heap).
func TestLineLayoutSeparatesWriters(t *testing.T) {
	const line = 64
	var l Line
	var d dirState
	for _, c := range []struct {
		name string
		off  uintptr
	}{
		{"Line.dirs", unsafe.Offsetof(l.dirs)},
		{"sizeof(Line)", unsafe.Sizeof(l)},
		{"sizeof(dirState)", unsafe.Sizeof(d)},
		{"dirState.busyUntil", unsafe.Offsetof(d.busyUntil)},
		{"dirState.train", unsafe.Offsetof(d.train)},
	} {
		if c.off%line != 0 {
			t.Errorf("%s = %d, not a multiple of %d", c.name, c.off, line)
		}
	}
	// A heap sift swaps whole events; one per cache line keeps a swap
	// from touching three.
	if sz := unsafe.Sizeof(event{}); sz != line {
		t.Errorf("sizeof(event) = %d, want %d", sz, line)
	}
	if end := unsafe.Offsetof(l.imp) + unsafe.Sizeof(l.imp); end > line {
		t.Errorf("Line's per-hop header fields end at %d, past the first cache line", end)
	}
	if end := unsafe.Offsetof(d.inFlightDrops) + unsafe.Sizeof(d.inFlightDrops); end > unsafe.Offsetof(d.busyUntil) {
		t.Errorf("dirState's construction-time fields end at %d, inside the sender-written group", end)
	}
}
