package trace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"
)

// idSeq disambiguates IDs if the entropy source ever fails: the fallback
// path folds a process-local counter into the ID so two failing reads in
// the same process still produce distinct IDs.
var idSeq atomic.Uint64

// NewW3CTraceID returns a fresh request trace ID: a 32-lowercase-hex
// (128-bit) W3C trace-id, never all-zero (the spec's invalid value). It is
// the only trace-ID shape: one request's pipeline spans, log line,
// Prometheus exemplars, Traceparent echo and /traces/{id} query all carry
// the same value.
func NewW3CTraceID() string { return randomHex(16) }

// newParentID returns a fresh 16-lowercase-hex W3C parent-id, never
// all-zero, for an echoed traceparent header.
func newParentID() string { return randomHex(8) }

// randomHex renders n random bytes as lowercase hex.
func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// Entropy exhaustion is effectively unreachable on the platforms we
		// run on; degrade to a counter rather than panicking mid-request.
		return fmt.Sprintf("%0*x", 2*n, idSeq.Add(1))
	}
	id := hex.EncodeToString(b)
	if strings.TrimLeft(id, "0") == "" {
		// The trace-context spec forbids an all-zero trace-id or parent-id.
		id = id[:len(id)-1] + "1"
	}
	return id
}

// ValidID reports whether s is a trace ID we mint or adopt: 32 lowercase
// hex characters, the W3C trace-id shape. Inputs from the network
// (traceparent trace-ids, /traces/{id} paths) are validated so arbitrary
// strings never become map keys or log fields.
func ValidID(s string) bool { return len(s) == 32 && isLowerHex(s) }

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
