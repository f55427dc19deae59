package packet

import (
	"errors"
	"fmt"

	"repro/internal/rns"
)

// Header is the KAR shim header as it would appear on the wire,
// between the outer Ethernet frame and the tenant payload. Layout:
//
//	byte 0      version (high nibble) | flags (low nibble)
//	byte 1      TTL
//	byte 2      route ID length in bytes (n)
//	bytes 3..   route ID, n bytes, big-endian
//
// A 43-bit route ID (the paper's full-protection Table 1 row) costs
// 3 + 6 = 9 bytes of shim — the kind of overhead §2.3 accounts for.
type Header struct {
	Version uint8 // 4 bits
	Flags   uint8 // 4 bits
	TTL     uint8
	RouteID rns.RouteID
}

// Version1 is the only defined header version.
const Version1 = 1

// Codec errors.
var (
	ErrHeaderTooShort = errors.New("packet: header truncated")
	ErrBadVersion     = errors.New("packet: unsupported header version")
	ErrRouteIDTooLong = errors.New("packet: route ID exceeds 255 bytes")
	ErrFieldOverflow  = errors.New("packet: field out of range")
)

// headerFixed is the fixed part of the header preceding the route ID.
const headerFixed = 3

// Marshal appends the wire encoding to dst and returns the result.
// Into a dst of sufficient capacity it performs no allocations for
// route IDs below 2^64.
func (h *Header) Marshal(dst []byte) ([]byte, error) {
	if h.Version > 0xf || h.Flags > 0xf {
		return nil, fmt.Errorf("version %d flags %#x: %w", h.Version, h.Flags, ErrFieldOverflow)
	}
	n := h.RouteID.ByteLen()
	if n > 255 {
		return nil, fmt.Errorf("route ID is %d bytes: %w", n, ErrRouteIDTooLong)
	}
	dst = append(dst, h.Version<<4|h.Flags, h.TTL, uint8(n))
	return h.RouteID.AppendTo(dst), nil
}

// Unmarshal parses a header from the front of buf and returns the
// number of bytes consumed.
func (h *Header) Unmarshal(buf []byte) (int, error) {
	if len(buf) < headerFixed {
		return 0, fmt.Errorf("%d bytes: %w", len(buf), ErrHeaderTooShort)
	}
	version := buf[0] >> 4
	if version != Version1 {
		return 0, fmt.Errorf("version %d: %w", version, ErrBadVersion)
	}
	n := int(buf[2])
	if len(buf) < headerFixed+n {
		return 0, fmt.Errorf("route ID needs %d bytes, have %d: %w", n, len(buf)-headerFixed, ErrHeaderTooShort)
	}
	h.Version = version
	h.Flags = buf[0] & 0xf
	h.TTL = buf[1]
	h.RouteID = rns.RouteIDFromBytes(buf[headerFixed : headerFixed+n])
	return headerFixed + n, nil
}
