package packet

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/rns"
)

// FlagDeflected is the one flag bit a test header sets: a packet that
// has left its encoded path, which a hot-potato core keeps
// random-walking.
const FlagDeflected uint8 = 1 << 0

func TestHeaderRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		h    Header
	}{
		{name: "fig1 primary", h: Header{Version: 1, TTL: 64, RouteID: rns.RouteIDFromUint64(44)}},
		{name: "fig1 protected", h: Header{Version: 1, Flags: FlagDeflected, TTL: 3, RouteID: rns.RouteIDFromUint64(660)}},
		{name: "zero route ID", h: Header{Version: 1, TTL: 1}},
		{name: "wide route ID", h: Header{Version: 1, TTL: 255,
			RouteID: rns.RouteIDFromBig(new(big.Int).Lsh(big.NewInt(0xdead), 100))}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf, err := tt.h.Marshal(nil)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if want := headerFixed + tt.h.RouteID.ByteLen(); len(buf) != want {
				t.Errorf("encoded %d bytes, want %d", len(buf), want)
			}
			var got Header
			n, err := got.Unmarshal(buf)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if n != len(buf) {
				t.Errorf("consumed %d bytes, want %d", n, len(buf))
			}
			if got.Version != tt.h.Version || got.Flags != tt.h.Flags || got.TTL != tt.h.TTL {
				t.Errorf("fields = %+v, want %+v", got, tt.h)
			}
			if !got.RouteID.Equal(tt.h.RouteID) {
				t.Errorf("route ID = %v, want %v", got.RouteID, tt.h.RouteID)
			}
		})
	}
}

func TestHeaderRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		h := Header{
			Version: 1,
			Flags:   uint8(rng.Intn(16)),
			TTL:     uint8(rng.Intn(256)),
			RouteID: rns.RouteIDFromUint64(rng.Uint64()),
		}
		buf, err := h.Marshal(nil)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		var got Header
		if _, err := got.Unmarshal(buf); err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if !got.RouteID.Equal(h.RouteID) || got.Flags != h.Flags || got.TTL != h.TTL {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, h)
		}
	}
}

func TestHeaderUnmarshalErrors(t *testing.T) {
	var h Header
	if _, err := h.Unmarshal([]byte{0x10}); !errors.Is(err, ErrHeaderTooShort) {
		t.Errorf("short buffer error = %v, want ErrHeaderTooShort", err)
	}
	if _, err := h.Unmarshal([]byte{0x20, 64, 0}); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version error = %v, want ErrBadVersion", err)
	}
	if _, err := h.Unmarshal([]byte{0x10, 64, 5, 1, 2}); !errors.Is(err, ErrHeaderTooShort) {
		t.Errorf("truncated route ID error = %v, want ErrHeaderTooShort", err)
	}
}

func TestHeaderMarshalValidation(t *testing.T) {
	h := Header{Version: 16}
	if _, err := h.Marshal(nil); !errors.Is(err, ErrFieldOverflow) {
		t.Errorf("version overflow error = %v, want ErrFieldOverflow", err)
	}
	h = Header{Version: 1, Flags: 16}
	if _, err := h.Marshal(nil); !errors.Is(err, ErrFieldOverflow) {
		t.Errorf("flags overflow error = %v, want ErrFieldOverflow", err)
	}
	big1 := new(big.Int).Lsh(big.NewInt(1), 8*256) // 257-byte route ID
	h = Header{Version: 1, RouteID: rns.RouteIDFromBig(big1)}
	if _, err := h.Marshal(nil); !errors.Is(err, ErrRouteIDTooLong) {
		t.Errorf("long route ID error = %v, want ErrRouteIDTooLong", err)
	}
}

func TestFlowIDReverse(t *testing.T) {
	f := FlowID{Src: "AS1", Dst: "AS3", ID: 7}
	r := f.Reverse()
	if r.Src != "AS3" || r.Dst != "AS1" || r.ID != 7 {
		t.Errorf("Reverse = %+v", r)
	}
	if f.String() != "AS1->AS3" {
		t.Errorf("String = %q", f.String())
	}
}

// TestMarshalReusedBufferZeroAlloc: a header marshal into a buffer that
// already has its capacity allocates nothing.
func TestMarshalReusedBufferZeroAlloc(t *testing.T) {
	h := Header{Version: 1, TTL: 64, RouteID: rns.RouteIDFromUint64(4402485597509)}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := h.Marshal(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	})
	if allocs != 0 {
		t.Errorf("Marshal into a reused buffer allocates %.1f objects/op, want 0", allocs)
	}
}
