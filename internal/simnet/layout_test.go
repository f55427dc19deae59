package simnet

import (
	"testing"
	"unsafe"
)

// TestLineLayoutSeparatesWriters pins the cache-line grouping the
// sharded driver relies on: on a cut link the receiving lane reads the
// Line header and a direction's construction-time fields while the
// sending lane writes that direction's queue state, counters and train,
// so the groups must start on 64-byte boundaries. A world's Lines are
// one slab, so it is the 768-byte stride, a multiple of 64, that keeps
// every Line after the first on the first one's alignment.
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
	// Per-direction state must not grow the world: a fat-tree of
	// 28-port switches has 11 368 Lines in its slab.
	if sz := unsafe.Sizeof(l); sz != 768 {
		t.Errorf("sizeof(Line) = %d, want 768", sz)
	}
	// Queue entries move by value between the ring's node slab and the
	// heaps: two to a cache line, never straddling one.
	if sz := unsafe.Sizeof(entry{}); sz != line/2 {
		t.Errorf("sizeof(entry) = %d, want %d", sz, line/2)
	}
	if end := unsafe.Offsetof(l.imp) + unsafe.Sizeof(l.imp); end > line {
		t.Errorf("Line's per-hop header fields end at %d, past the first cache line", end)
	}
	if end := unsafe.Offsetof(d.box) + unsafe.Sizeof(d.box); end > unsafe.Offsetof(d.busyUntil) {
		t.Errorf("dirState's construction-time fields end at %d, inside the sender-written group", end)
	}
	// The serialization memo is rewritten by the sender whenever the
	// packet size changes: sender-written group too.
	if off := unsafe.Offsetof(d.txSize); off < unsafe.Offsetof(d.busyUntil) {
		t.Errorf("dirState.txSize at %d, want inside the sender-written group (from busyUntil at %d)",
			off, unsafe.Offsetof(d.busyUntil))
	}
	// A direction's tie-break counter is written by its sender on every
	// hop: it belongs in the sender-written group, not in a line of the
	// scheduler's entity array that another lane's counters share.
	if off := unsafe.Offsetof(d.keys); off <= unsafe.Offsetof(d.busyUntil) || off >= unsafe.Offsetof(d.train) {
		t.Errorf("dirState.keys at %d, want inside the sender-written group (after busyUntil at %d, before train at %d)",
			off, unsafe.Offsetof(d.busyUntil), unsafe.Offsetof(d.train))
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
