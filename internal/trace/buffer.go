package trace

import (
	"container/list"
	"slices"
	"sync"
	"time"
)

// ReqTrace is the finished span timeline of one request (one pipeline
// job): its trace ID, identity, wall-clock epoch, and the pre-order,
// depth-annotated span list assembled by the runner (queue wait, cache
// tier, compile phases, store I/O, run). It is the unit the trace buffer
// stores; GET /traces/{id} renders every stored request of one trace ID
// as a Chrome trace.
type ReqTrace struct {
	ID    string    `json:"trace_id"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	DurMS float64   `json:"dur_ms"`
	// Err is the job's error text ("" on success; traps are not errors).
	Err string `json:"err,omitempty"`
	// Spans is the request timeline in pre-order with Depth nesting
	// (Spans[0] is the root "request" span).
	Spans []Span `json:"spans"`
}

// BufferStats counts a Buffer's traffic. Evicted is normal operation (the
// buffer is bounded over a busy service); Dropped counts traces the
// buffer refused — malformed entries that could never be queried (no ID,
// no spans) — and is expected to stay zero: the load-harness CI gate
// asserts it.
type BufferStats struct {
	Added   uint64 `json:"added"`
	Evicted uint64 `json:"evicted"`
	Dropped uint64 `json:"dropped"`
	Live    int    `json:"live"`
	Cap     int    `json:"cap"`
}

// DefaultBufferEntries bounds the trace buffer when no size is given.
// Traces are a few hundred bytes to a few KB each, so the default holds
// the last ~1024 requests in a couple of MB.
const DefaultBufferEntries = 1024

// Buffer is a bounded in-memory store of finished request traces,
// queryable by trace ID and ordered by when each was added. It holds one
// entry per request: requests that share one upstream trace-id are all
// kept, and capacity and eviction count requests. When full, adding evicts
// the oldest request. It is safe for concurrent use.
type Buffer struct {
	mu      sync.Mutex
	cap     int
	order   *list.List                 // of ReqTrace, oldest at the front
	byID    map[string][]*list.Element // trace ID -> its requests in order, oldest first
	added   uint64
	evicted uint64
	dropped uint64
}

// NewBuffer returns a buffer bounded to capacity requests (<= 0 means
// DefaultBufferEntries).
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultBufferEntries
	}
	return &Buffer{cap: capacity, order: list.New(), byID: make(map[string][]*list.Element, capacity)}
}

// Add stores a finished request trace as the newest entry, evicting the
// oldest request when full. A trace with no ID or no spans is counted as
// dropped — it could never be queried, so storing it would only mask the
// bug that produced it.
func (b *Buffer) Add(t ReqTrace) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.ID == "" || len(t.Spans) == 0 {
		b.dropped++
		return
	}
	b.added++
	b.byID[t.ID] = append(b.byID[t.ID], b.order.PushBack(t))
	if b.order.Len() > b.cap {
		// The oldest request overall is the oldest of its trace ID.
		old := b.order.Remove(b.order.Front()).(ReqTrace)
		if es := b.byID[old.ID]; len(es) > 1 {
			b.byID[old.ID] = slices.Delete(es, 0, 1)
		} else {
			delete(b.byID, old.ID)
		}
		b.evicted++
	}
}

// Get returns every retained request with the given trace ID, oldest
// first.
func (b *Buffer) Get(id string) ([]ReqTrace, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	es, ok := b.byID[id]
	if !ok {
		return nil, false
	}
	out := make([]ReqTrace, len(es))
	for i, e := range es {
		out[i] = e.Value.(ReqTrace)
	}
	return out, true
}

// Recent returns up to n retained requests, newest first (n <= 0 means
// all).
func (b *Buffer) Recent(n int) []ReqTrace {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= 0 || n > b.order.Len() {
		n = b.order.Len()
	}
	out := make([]ReqTrace, 0, n)
	for e := b.order.Back(); len(out) < n; e = e.Prev() {
		out = append(out, e.Value.(ReqTrace))
	}
	return out
}

// Stats snapshots the buffer counters.
func (b *Buffer) Stats() BufferStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BufferStats{
		Added: b.added, Evicted: b.evicted, Dropped: b.dropped,
		Live: b.order.Len(), Cap: b.cap,
	}
}
