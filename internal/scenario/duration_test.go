package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"
)

// reflectiveDuration is Duration.UnmarshalJSON as it was before the
// in-place path: every literal through encoding/json.
func reflectiveDuration(b []byte) (Duration, error) {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return 0, fmt.Errorf("scenario: durations are strings like \"150ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("scenario: bad duration %q: %w", s, err)
	}
	return Duration(v), nil
}

// The hand codec is byte-for-byte json.Marshal of String() one way and
// encoding/json's decode the other, in value and in error text.
func TestDurationCodecMatchesReflection(t *testing.T) {
	durations := []time.Duration{0, -1, 1, 999, time.Microsecond, 1500, time.Millisecond,
		2500 * time.Microsecond, time.Second, -90 * time.Second, time.Hour,
		2*time.Hour + 45*time.Minute + 30*time.Second + 500*time.Millisecond,
		math.MinInt64, math.MaxInt64}
	literals := []string{`"\u0031ms"`, `"1µs"`, `"1\u00b5s"`, `"1us"`, `""`, `"abc"`, `"1s`,
		`"1s"`, "\"1\xffs\"", "\"1\ts\"", `"1\"s"`, `null`, `1`, `true`, ` "1s"`, `"-0"`, `"1.5h"`}
	for _, d := range durations {
		got, err := Duration(d).MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON(%v): %v", d, err)
		}
		want, _ := json.Marshal(d.String())
		if !bytes.Equal(got, want) {
			t.Errorf("MarshalJSON(%v) = %s, want %s", d, got, want)
		}
		if via, _ := json.Marshal(Duration(d)); !bytes.Equal(via, want) {
			t.Errorf("json.Marshal(Duration(%v)) = %s, want %s", d, via, want)
		}
		literals = append(literals, string(want))
	}
	for _, lit := range literals {
		var got Duration
		err := got.UnmarshalJSON([]byte(lit))
		want, wantErr := reflectiveDuration([]byte(lit))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("UnmarshalJSON(%s): error %v, want %v", lit, err, wantErr)
		} else if err == nil && got != want {
			t.Errorf("UnmarshalJSON(%s) = %v, want %v", lit, got.D(), want.D())
		}
	}
}

// A plain literal is read in place: its one allocation is the string
// time.ParseDuration takes.
func TestDurationUnmarshalPlainAllocates(t *testing.T) {
	lit := []byte(`"150ms"`)
	var d Duration
	if n := testing.AllocsPerRun(100, func() { _ = d.UnmarshalJSON(lit) }); n > 1 {
		t.Errorf("UnmarshalJSON(%s) allocates %.1f objects, want <= 1", lit, n)
	}
	if d.D() != 150*time.Millisecond {
		t.Errorf("UnmarshalJSON(%s) = %v", lit, d.D())
	}
}
