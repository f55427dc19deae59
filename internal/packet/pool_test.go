package packet

import "testing"

func TestPoolRoundTrip(t *testing.T) {
	p := Get()
	if !p.pooled {
		t.Fatal("Get returned an unpooled packet")
	}
	p.Flow = FlowID{Src: "A", Dst: "B", ID: 7}
	p.Seq = 99
	p.TTL = 3
	p.SACKBlocks = append(p.SACKBlocks, SACKBlock{From: 1, To: 4})
	p.Release()

	q := Get()
	if q.Seq != 0 || q.TTL != 0 || q.Flow != (FlowID{}) || q.Deflected {
		t.Errorf("recycled packet not zeroed: %+v", q)
	}
	if len(q.SACKBlocks) != 0 {
		t.Errorf("recycled packet has %d SACK blocks, want 0", len(q.SACKBlocks))
	}
	q.Release()
}

// TestReleaseKeepsSACKCapacity: the SACK backing array survives a
// Release/Get cycle so ACK senders can refill it without allocating.
func TestReleaseKeepsSACKCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values under the race detector")
	}
	p := Get()
	p.SACKBlocks = append(p.SACKBlocks[:0], SACKBlock{1, 2}, SACKBlock{4, 6}, SACKBlock{9, 12})
	p.Release()
	// The pool gives no identity guarantee, but a single-goroutine
	// Get right after a Put returns the same object.
	q := Get()
	if cap(q.SACKBlocks) < 3 {
		t.Errorf("SACK capacity = %d after recycle, want ≥ 3", cap(q.SACKBlocks))
	}
	q.Release()
}

// TestReleaseUnpooledIsNoop: hand-built packets (tests, captures) may
// be passed through Release-calling sinks and must survive untouched.
func TestReleaseUnpooledIsNoop(t *testing.T) {
	p := &Packet{Seq: 42, TTL: 7}
	p.Release()
	if p.Seq != 42 || p.TTL != 7 {
		t.Errorf("Release mutated an unpooled packet: %+v", p)
	}
	var nilPkt *Packet
	nilPkt.Release() // must not panic
}

func TestDoubleReleaseIsNoop(t *testing.T) {
	p := Get()
	p.Release()
	p.Release() // second release must not re-pool (or panic)
}
