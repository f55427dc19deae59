package simnet

import (
	"testing"
	"unsafe"
)

// TestLineLayoutSeparatesWriters pins the cache-line grouping the
// sharded driver and the per-hop cost rely on. On a cut link the
// receiving lane reads the Line header and a direction's first line
// (fixed at construction) while the sending lane writes that
// direction's train and sender lines, so every group starts on a
// 64-byte boundary and is one line long. A world's Lines are one slab,
// so it is the 512-byte stride, a multiple of 64, that keeps every Line
// after the first on the first one's alignment. What no hop reads
// lives past the directions.
func TestLineLayoutSeparatesWriters(t *testing.T) {
	const line = 64
	var l Line
	var d dirState
	for _, c := range []struct {
		name string
		off  uintptr
	}{
		{"Line.dirs", unsafe.Offsetof(l.dirs)},
		{"Line.link", unsafe.Offsetof(l.link)},
		{"sizeof(Line)", unsafe.Sizeof(l)},
		{"sizeof(dirState)", unsafe.Sizeof(d)},
		{"dirState.busyUntil", unsafe.Offsetof(d.busyUntil)},
		{"dirState.train", unsafe.Offsetof(d.train)},
	} {
		if c.off%line != 0 {
			t.Errorf("%s = %d, not a multiple of %d", c.name, c.off, line)
		}
	}
	// Per-direction state must not grow the world: a fat-tree of
	// 28-port switches has 11 368 Lines in its slab.
	if sz := unsafe.Sizeof(l); sz != 512 {
		t.Errorf("sizeof(Line) = %d, want 512", sz)
	}
	// A direction is three lines: fixed, train, sender.
	if sz := unsafe.Sizeof(d); sz != 3*line {
		t.Errorf("sizeof(dirState) = %d, want %d", sz, 3*line)
	}
	if sz := unsafe.Sizeof(d.train); sz != line {
		t.Errorf("sizeof(train) = %d, want one cache line (%d)", sz, line)
	}
	// A train's ring holds two members to a cache line, none straddling
	// two.
	if sz := unsafe.Sizeof(trainMember{}); sz != line/2 {
		t.Errorf("sizeof(trainMember) = %d, want %d", sz, line/2)
	}
	// Queue entries move by value between the ring's node slab and the
	// heaps: two to a cache line, never straddling one.
	if sz := unsafe.Sizeof(entry{}); sz != line/2 {
		t.Errorf("sizeof(entry) = %d, want %d", sz, line/2)
	}
	if end := unsafe.Offsetof(l.imp) + unsafe.Sizeof(l.imp); end > line {
		t.Errorf("Line's per-hop header fields end at %d, past the first cache line", end)
	}
	if end := unsafe.Offsetof(d.inFlightDrops) + unsafe.Sizeof(d.inFlightDrops); end > unsafe.Offsetof(d.train) {
		t.Errorf("dirState's construction-time fields end at %d, inside the train's line", end)
	}
	if end := unsafe.Offsetof(d.train) + unsafe.Sizeof(d.train); end > unsafe.Offsetof(d.busyUntil) {
		t.Errorf("dirState.train ends at %d, inside the sender-written group", end)
	}
	// The serialization memo is rewritten by the sender whenever the
	// packet size changes: sender-written group too.
	if off := unsafe.Offsetof(d.txSize); off < unsafe.Offsetof(d.busyUntil) {
		t.Errorf("dirState.txSize at %d, want inside the sender-written group (from busyUntil at %d)",
			off, unsafe.Offsetof(d.busyUntil))
	}
	// A direction's unfolded sent counts are written by its sender on
	// every hop: they belong in the sender-written group, not in the
	// receiver-read group. Its tie-break keys are read off the train's
	// member counter (train.go, Key parity), which the sender writes
	// anyway.
	for _, f := range []struct {
		name string
		off  uintptr
	}{
		{"sentPackets", unsafe.Offsetof(d.sentPackets)},
		{"sentBytes", unsafe.Offsetof(d.sentBytes)},
	} {
		if f.off <= unsafe.Offsetof(d.busyUntil) || f.off >= unsafe.Sizeof(d) {
			t.Errorf("dirState.%s at %d, want inside the sender-written group (after busyUntil at %d)",
				f.name, f.off, unsafe.Offsetof(d.busyUntil))
		}
	}
	if end := unsafe.Offsetof(d.txTime) + unsafe.Sizeof(d.txTime); end > unsafe.Offsetof(d.busyUntil)+line {
		t.Errorf("dirState's sender-written group ends at %d, past its one line", end)
	}
}

// TestEntsHoldControlAndNodesOnly: the lanes' shared key-counter array
// has the control entity and one entity per node, and no link
// direction's counter.
func TestEntsHoldControlAndNodesOnly(t *testing.T) {
	w := newShardChain(t, 1, false)
	if got, want := len(w.n.sched.ents), 1+len(w.n.Topology().Nodes()); got != want {
		t.Errorf("len(Scheduler.ents) = %d, want %d (control + nodes)", got, want)
	}
}
