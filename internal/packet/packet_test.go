package packet

import (
	"testing"
	"unsafe"
)

// TestPacketLayout pins the packet's size class and its hot group: a
// Packet is 128 bytes, so the allocator hands it out 128-aligned, and
// every field a hop reads or writes (route ID, size, hop count, TTL,
// kind, the flags) ends before byte 64 — one cache line per hop.
func TestPacketLayout(t *testing.T) {
	var p Packet
	if sz := unsafe.Sizeof(p); sz != 128 {
		t.Errorf("sizeof(Packet) = %d, want 128", sz)
	}
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"RouteID", unsafe.Offsetof(p.RouteID), unsafe.Sizeof(p.RouteID)},
		{"Size", unsafe.Offsetof(p.Size), unsafe.Sizeof(p.Size)},
		{"Hops", unsafe.Offsetof(p.Hops), unsafe.Sizeof(p.Hops)},
		{"TTL", unsafe.Offsetof(p.TTL), unsafe.Sizeof(p.TTL)},
		{"Kind", unsafe.Offsetof(p.Kind), unsafe.Sizeof(p.Kind)},
		{"Deflected", unsafe.Offsetof(p.Deflected), unsafe.Sizeof(p.Deflected)},
		{"Sampled", unsafe.Offsetof(p.Sampled), unsafe.Sizeof(p.Sampled)},
		{"pooled", unsafe.Offsetof(p.pooled), unsafe.Sizeof(p.pooled)},
		{"Retrans", unsafe.Offsetof(p.Retrans), unsafe.Sizeof(p.Retrans)},
		{"DSACK", unsafe.Offsetof(p.DSACK), unsafe.Sizeof(p.DSACK)},
	} {
		if end := f.off + f.size; end > 64 {
			t.Errorf("Packet.%s ends at byte %d, past the first cache line", f.name, end)
		}
	}
	// TTL stays signed: a decrement from 0 must read as expired.
	ttl := p.TTL
	ttl--
	if ttl > 0 {
		t.Errorf("TTL 0 - 1 = %d, want a value <= 0", ttl)
	}
}
