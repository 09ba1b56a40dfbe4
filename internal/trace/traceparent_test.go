package trace

import (
	"strings"
	"testing"
)

func TestNewW3CTraceID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewW3CTraceID()
		if len(id) != 32 || !isLowerHex(id) {
			t.Fatalf("NewW3CTraceID() = %q, want 32 lowercase hex", id)
		}
		if id == zeroTraceID {
			t.Fatal("minted the forbidden all-zero trace-id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
		if !ValidID(id) {
			t.Fatalf("ValidID rejects a minted W3C trace ID %q", id)
		}
	}
}

func TestValidIDLengths(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want bool
	}{
		{"0123456789abcdef0123456789abcdef", true},
		{"0123456789abcdef", false},                  // 16: a parent-id, not a trace ID
		{"0123456789ABCDEF0123456789abcdef", false},  // uppercase
		{"0123456789abcdef0123456789abcde", false},   // 31
		{"0123456789abcdef0123456789abcdef0", false}, // 33
		{"ghijklmnopqrstuvghijklmnopqrstuv", false},  // non-hex
		{"", false},
	} {
		if got := ValidID(tc.id); got != tc.want {
			t.Errorf("ValidID(%q) = %v, want %v", tc.id, got, tc.want)
		}
	}
}

func TestParseTraceparent(t *testing.T) {
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	for _, tc := range []struct {
		name, header string
		want         string
		ok           bool
	}{
		{"canonical", "00-" + tid + "-00f067aa0ba902b7-01", tid, true},
		{"not sampled", "00-" + tid + "-00f067aa0ba902b7-00", tid, true},
		{"future version", "cc-" + tid + "-00f067aa0ba902b7-01-extra", tid, true},
		{"version ff", "ff-" + tid + "-00f067aa0ba902b7-01", "", false},
		{"v00 extra field", "00-" + tid + "-00f067aa0ba902b7-01-extra", "", false},
		{"zero trace-id", "00-" + zeroTraceID + "-00f067aa0ba902b7-01", "", false},
		{"zero parent-id", "00-" + tid + "-" + zeroParentID + "-01", "", false},
		{"uppercase trace-id", "00-" + strings.ToUpper(tid) + "-00f067aa0ba902b7-01", "", false},
		{"short trace-id", "00-" + tid[:31] + "-00f067aa0ba902b7-01", "", false},
		{"short parent-id", "00-" + tid + "-00f067aa0ba902-01", "", false},
		{"bad flags", "00-" + tid + "-00f067aa0ba902b7-0g", "", false},
		{"too few fields", "00-" + tid, "", false},
		{"garbage", "hello world", "", false},
		{"empty", "", "", false},
	} {
		got, ok := ParseTraceparent(tc.header)
		if ok != tc.ok || got != tc.want {
			t.Errorf("%s: ParseTraceparent(%q) = (%q, %v), want (%q, %v)",
				tc.name, tc.header, got, ok, tc.want, tc.ok)
		}
	}
}

// TestTraceparentRoundTrip pins the echo contract: the rendered header
// parses and carries a 32-hex trace-id verbatim; anything else, a 16-hex
// ID included, degrades to a fresh trace-id rather than an invalid echo.
func TestTraceparentRoundTrip(t *testing.T) {
	w3c := NewW3CTraceID()
	h := Traceparent(w3c)
	got, ok := ParseTraceparent(h)
	if !ok || got != w3c {
		t.Fatalf("Traceparent(%q) = %q, parsed back (%q, %v)", w3c, h, got, ok)
	}

	for _, junk := range []string{"not-an-id", "0123456789abcdef", zeroTraceID} {
		got, ok := ParseTraceparent(Traceparent(junk))
		if !ok || got == junk || strings.Contains(got, junk) {
			t.Fatalf("Traceparent(%q) echoed (%q, %v), want a fresh valid trace-id", junk, got, ok)
		}
	}
}
