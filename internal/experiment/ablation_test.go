package experiment

import "testing"

// TestRenoAblation: the adaptive transport must clearly beat strict
// Reno under deflection-induced reordering — the DESIGN.md claim.
func TestRenoAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation")
	}
	rows, err := RenoAblation(5, 0)
	if err != nil {
		t.Fatalf("RenoAblation: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	adaptive, sack, strict := rows[0], rows[1], rows[2]
	if sack.DuringMbps < 2*strict.DuringMbps {
		t.Errorf("SACK (%.1f Mb/s) not clearly above strict Reno (%.1f Mb/s)",
			sack.DuringMbps, strict.DuringMbps)
	}
	if adaptive.DuringMbps < 3*strict.DuringMbps {
		t.Errorf("adaptive (%.1f Mb/s) not clearly above strict Reno (%.1f Mb/s)",
			adaptive.DuringMbps, strict.DuringMbps)
	}
	if strict.FastRetx < adaptive.FastRetx {
		t.Errorf("strict Reno fast-retransmits (%d) below adaptive (%d); reordering should storm it",
			strict.FastRetx, adaptive.FastRetx)
	}
}

// TestReactionComparison: KAR loses (almost) nothing; the reactive
// controller loses roughly controlDelay worth of probes; no-reaction
// loses everything after the failure.
func TestReactionComparison(t *testing.T) {
	rows, err := Reaction(ReactionConfig{Seed: 5})
	if err != nil {
		t.Fatalf("Reaction: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	kar, reactive, dead := rows[0], rows[1], rows[2]

	if kar.LostPct > 1 {
		t.Errorf("KAR lost %.1f%%, want hitless (<1%%: only in-flight packets at failure onset)", kar.LostPct)
	}
	// The reactive controller blackholes for ~250 ms of the 2 s
	// emission: ~12.5% loss, give or take scheduling.
	if reactive.LostPct < 8 || reactive.LostPct > 20 {
		t.Errorf("reactive controller lost %.1f%%, want ~12.5%% (the control-plane gap)", reactive.LostPct)
	}
	// No reaction at all: everything after t=100 ms dies (95%).
	if dead.LostPct < 90 {
		t.Errorf("no-reaction lost %.1f%%, want ~95%%", dead.LostPct)
	}
	if !(kar.LostPct < reactive.LostPct && reactive.LostPct < dead.LostPct) {
		t.Errorf("loss ordering violated: %v", rows)
	}
}
