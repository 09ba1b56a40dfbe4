package trace

import "time"

// Span is one timed pipeline phase (parse, sema, lower, infer, instrument,
// run). DurMS is milliseconds, the unit the metrics surface uses. StartMS
// is the span's start offset from the SpanSet's first observation and
// Depth its nesting level, so exporters (the flight recorder's Chrome
// trace rendering) can reconstruct a timeline from a snapshot.
type Span struct {
	Name    string  `json:"name"`
	DurMS   float64 `json:"dur_ms"`
	StartMS float64 `json:"start_ms,omitempty"`
	Depth   int     `json:"depth,omitempty"`
}

// SpanSet records phases that run one after another, as depth-0 spans in
// start order. The zero value is ready to use; it is not safe for
// concurrent use.
type SpanSet struct {
	Spans []Span

	t0 time.Time
}

// now returns the offset in ms since the set's first observation,
// initializing the epoch on first use.
func (s *SpanSet) now() float64 {
	if s.t0.IsZero() {
		s.t0 = time.Now()
		return 0
	}
	return float64(time.Since(s.t0)) / float64(time.Millisecond)
}

// Do times fn and records it under name. A nil set just runs fn.
func (s *SpanSet) Do(name string, fn func()) {
	if s == nil {
		fn()
		return
	}
	i := len(s.Spans)
	s.Spans = append(s.Spans, Span{Name: name, StartMS: s.now()})
	fn()
	s.Spans[i].DurMS = s.now() - s.Spans[i].StartMS
}
