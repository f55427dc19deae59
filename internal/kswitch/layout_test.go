package kswitch

import (
	"testing"
	"unsafe"
)

// TestSwitchLayoutKeepsForwardHot pins the grouping an on-path forward
// relies on: it reads the switch's first cache line (network, per-port
// lines, shape) and bumps the two counters of its second. InstallAll
// cuts the switches from one slab, so a size that is a multiple of 64
// keeps every switch on the first one's alignment.
func TestSwitchLayoutKeepsForwardHot(t *testing.T) {
	const line = 64
	var s Switch
	if sz := unsafe.Sizeof(s); sz%line != 0 {
		t.Errorf("sizeof(Switch) = %d, not a multiple of %d", sz, line)
	}
	if end := unsafe.Offsetof(s.shape) + unsafe.Sizeof(s.shape); end > line {
		t.Errorf("the forward's read fields end at %d, past the first cache line", end)
	}
	if lo, hi := unsafe.Offsetof(s.received), unsafe.Offsetof(s.forwarded)+unsafe.Sizeof(s.forwarded); lo < line || hi > 2*line {
		t.Errorf("received/forwarded span [%d, %d), want inside the second cache line", lo, hi)
	}
}
