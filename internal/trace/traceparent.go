package trace

import "strings"

// W3C trace-context (https://www.w3.org/TR/trace-context/) support: ccserve
// accepts an inbound `traceparent` request header, adopts its 128-bit
// trace-id as the request's trace ID, and echoes a traceparent on every
// response, so a request that crosses process boundaries (loadgen → ccserve
// today, ccserve → remote cache tomorrow) keeps one identity end to end.
//
// The header shape is four dash-separated lowercase-hex fields:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	  00    -  32 hex    -   16 hex    -   2 hex
//
// Per spec, a malformed traceparent is not an error: the receiver discards
// it, starts a fresh trace, and (here) counts the discard so operators can
// see a misbehaving upstream.

const (
	zeroTraceID  = "00000000000000000000000000000000"
	zeroParentID = "0000000000000000"
)

// ParseTraceparent validates a traceparent header per the W3C trace-context
// spec and returns its trace-id. ok is false for anything malformed:
// wrong field lengths, uppercase or non-hex digits, the forbidden all-zero
// trace-id/parent-id, or the invalid version ff. Versions above 00 are
// accepted as long as the first four fields parse (the spec requires
// forward compatibility: later versions may append fields).
func ParseTraceparent(h string) (traceID string, ok bool) {
	parts := strings.Split(h, "-")
	if len(parts) < 4 {
		return "", false
	}
	version, tid, pid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(version) != 2 || !isLowerHex(version) || version == "ff" {
		return "", false
	}
	// Version 00 defines exactly four fields; extra fields are malformed.
	if version == "00" && len(parts) != 4 {
		return "", false
	}
	if len(tid) != 32 || !isLowerHex(tid) || tid == zeroTraceID {
		return "", false
	}
	if len(pid) != 16 || !isLowerHex(pid) || pid == zeroParentID {
		return "", false
	}
	if len(flags) != 2 || !isLowerHex(flags) {
		return "", false
	}
	return tid, true
}

// Traceparent renders a version-00 traceparent header carrying traceID,
// with a freshly minted parent-id and the sampled flag set. The trace-id is
// carried verbatim, so the upstream that minted it can correlate the echo;
// anything that is not a valid non-zero trace ID degrades to a fresh one.
func Traceparent(traceID string) string {
	if !ValidID(traceID) || traceID == zeroTraceID {
		traceID = NewW3CTraceID()
	}
	return "00-" + traceID + "-" + newParentID() + "-01"
}
