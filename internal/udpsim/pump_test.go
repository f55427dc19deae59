package udpsim

import "testing"

// A pump's counts widen from bytes to uint32s when one flow reaches
// 255: sequence numbers run on without a gap, the byte counts are
// dropped, and a flow that sends its first packet after the widening
// still counts as active.
func TestPumpWidensAt255(t *testing.T) {
	p := &pairPump{sent: make([]uint8, 3)}
	for seq := uint64(0); seq < 300; seq++ {
		if got := p.nextSeq(0); got != seq {
			t.Fatalf("flow 0: seq %d, want %d", got, seq)
		}
		if widened := p.wide != nil; widened != (seq >= 255) {
			t.Fatalf("after seq %d: widened %v", seq, widened)
		}
	}
	if p.sent != nil {
		t.Error("byte counts kept after widening")
	}
	if got := p.activeFlows(); got != 1 {
		t.Errorf("active flows %d before flow 2 sends, want 1", got)
	}
	if got := p.nextSeq(2); got != 0 {
		t.Errorf("flow 2's first seq %d, want 0", got)
	}
	if got := p.activeFlows(); got != 2 {
		t.Errorf("active flows %d, want 2", got)
	}
}
