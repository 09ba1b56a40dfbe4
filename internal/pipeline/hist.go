package pipeline

import (
	"math"
	"sync"
	"time"
)

// The latency histograms use HDR-style logarithmic buckets: bounds grow by
// a factor of 2^(1/4) (four sub-buckets per octave, ~19% relative width,
// so a quantile read from the buckets is within ~9% of the true value)
// from 1µs to ~67s, with a final +Inf overflow bucket. One fixed bound
// table serves every duration-shaped metric — end-to-end latency,
// queue wait, per-phase compile times — and the Prometheus exposition
// renders every one with the same le labels; the queue-depth histogram
// reuses it as a dimensionless scale (depth n lands in the bucket
// bounding n).
const (
	logBucketsPerOctave = 4
	logBucketCount      = 105 // 26 octaves: 0.001ms .. 0.001ms*2^(104/4) = ~67.1s
	logBucketMinMS      = 0.001
)

// logBucketStep is the ratio between adjacent bucket bounds; bound i-1 is
// bound i divided by this factor.
var logBucketStep = math.Exp2(1.0 / logBucketsPerOctave)

// logBoundsMS are the inclusive upper bounds, in milliseconds.
var logBoundsMS = func() [logBucketCount]float64 {
	var b [logBucketCount]float64
	for i := range b {
		b[i] = logBucketMinMS * math.Exp2(float64(i)/logBucketsPerOctave)
	}
	return b
}()

// logBucketFor returns the index of the bucket holding ms (len(bounds)
// marks the overflow bucket). Bounds are inclusive: ms == bound i lands in
// bucket i.
func logBucketFor(ms float64) int {
	if ms <= logBoundsMS[0] {
		return 0
	}
	if ms > logBoundsMS[logBucketCount-1] {
		return logBucketCount
	}
	// log2(ms / min) * perOctave, then fix up float edge error locally.
	i := int(math.Ceil(math.Log2(ms/logBucketMinMS) * logBucketsPerOctave))
	if i < 0 {
		i = 0
	}
	if i >= logBucketCount {
		i = logBucketCount - 1
	}
	for i > 0 && ms <= logBoundsMS[i-1] {
		i--
	}
	for i < logBucketCount-1 && ms > logBoundsMS[i] {
		i++
	}
	return i
}

// Exemplar links one histogram bucket to the trace of a request that
// landed in it (OpenMetrics exemplar semantics): follow TraceID to
// GET /traces/{id} for the full span timeline of a representative
// observation. Retention is last-per-bucket: each new observation with a
// trace ID replaces the bucket's exemplar.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	ValueMS float64 `json:"value_ms"`
}

// HistBucket is one histogram bucket in a snapshot. Empty buckets are
// omitted from snapshots; LeMS 0 marks the +Inf overflow bucket.
type HistBucket struct {
	LeMS     float64   `json:"le_ms"`
	Count    uint64    `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Histogram is an immutable snapshot of a latency distribution: sparse
// non-empty buckets over the canonical log-bucket bounds, with per-bucket
// exemplars. It marshals into /metrics JSON and backs the Prometheus
// rendering.
type Histogram struct {
	Count   uint64       `json:"count"`
	SumMS   float64      `json:"sum_ms"`
	MaxMS   float64      `json:"max_ms"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// MeanMS returns the mean observation in milliseconds.
func (h Histogram) MeanMS() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumMS / float64(h.Count)
}

// Quantile returns the q-quantile (0 <= q <= 1) in milliseconds,
// linearly interpolated inside the bucket holding the target rank. The
// overflow bucket reports MaxMS. An empty histogram reports 0.
func (h Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	if target < 1 {
		target = 1
	}
	var cum uint64
	for _, b := range h.Buckets {
		if b.LeMS == 0 { // overflow
			return h.MaxMS
		}
		if float64(cum+b.Count) >= target {
			// Interpolate from the bucket's own canonical lower bound, not
			// the previous non-empty snapshot bucket: sparse snapshots elide
			// empty buckets, and interpolating across an elided run would
			// drag the estimate far below the bucket that actually holds the
			// target rank (bimodal latency understating p99).
			lower := 0.0
			if b.LeMS > logBoundsMS[0] {
				lower = b.LeMS / logBucketStep
			}
			frac := (target - float64(cum)) / float64(b.Count)
			v := lower + frac*(b.LeMS-lower)
			if v > h.MaxMS && h.MaxMS > 0 {
				v = h.MaxMS
			}
			return v
		}
		cum += b.Count
	}
	return h.MaxMS
}

// DefaultExemplarMaxAge bounds how long a bucket's exemplar stays in
// snapshots without a fresh trace-carrying observation. By then the
// bounded trace buffer has long evicted the linked trace, so the exemplar
// would point at a trace ID that GET /traces/{id} can no longer resolve.
const DefaultExemplarMaxAge = time.Hour

// exemplarSlot is one bucket's retained exemplar plus the wall-clock time
// of the observation that set it, so snapshots can age stale ones out.
type exemplarSlot struct {
	e  Exemplar
	at time.Time
}

// LogHist is the mutable accumulator behind a Histogram snapshot: fixed
// log buckets, a last-per-bucket exemplar slot, and one mutex. Observe is
// a few loads and stores — far off any hot path (one observation per job
// phase) — so a mutex beats the complexity of striping. The zero value is
// ready to use; LogHist must not be copied after first use.
type LogHist struct {
	mu        sync.Mutex
	count     uint64
	sumMS     float64
	maxMS     float64
	buckets   [logBucketCount + 1]uint64
	exemplars [logBucketCount + 1]exemplarSlot

	// now is a test hook; nil means time.Now.
	now func() time.Time
}

func (h *LogHist) clock() time.Time {
	if h.now != nil {
		return h.now()
	}
	return time.Now()
}

// Observe records a duration with an optional exemplar trace ID.
func (h *LogHist) Observe(d time.Duration, traceID string) {
	h.ObserveMS(float64(d)/float64(time.Millisecond), traceID)
}

// ObserveMS records a raw millisecond (or dimensionless) value.
func (h *LogHist) ObserveMS(ms float64, traceID string) {
	if ms < 0 || math.IsNaN(ms) {
		ms = 0
	}
	i := logBucketFor(ms)
	h.mu.Lock()
	h.count++
	h.sumMS += ms
	if ms > h.maxMS {
		h.maxMS = ms
	}
	h.buckets[i]++
	if traceID != "" {
		h.exemplars[i] = exemplarSlot{e: Exemplar{TraceID: traceID, ValueMS: ms}, at: h.clock()}
	}
	h.mu.Unlock()
}

// Snapshot returns an immutable copy with empty buckets elided. Exemplars
// older than DefaultExemplarMaxAge are omitted; the bucket counts stay.
func (h *LogHist) Snapshot() Histogram {
	cutoff := h.clock().Add(-DefaultExemplarMaxAge)
	h.mu.Lock()
	defer h.mu.Unlock()
	out := Histogram{Count: h.count, SumMS: h.sumMS, MaxMS: h.maxMS}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		b := HistBucket{Count: n}
		if i < logBucketCount {
			b.LeMS = logBoundsMS[i]
		}
		if s := h.exemplars[i]; s.e.TraceID != "" && !s.at.Before(cutoff) {
			ex := s.e
			b.Exemplar = &ex
		}
		out.Buckets = append(out.Buckets, b)
	}
	return out
}
