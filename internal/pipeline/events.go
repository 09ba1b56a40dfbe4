package pipeline

import (
	"sync"
	"time"
)

// JobEvent is one live pipeline event: a job starting, finishing, or
// trapping. Events stream to subscribers (ccserve's GET /events) as they
// happen; they are advisory telemetry, not a durable log — a slow consumer
// drops events rather than stalling the worker pool.
type JobEvent struct {
	// Seq is a monotonically increasing sequence number; gaps tell a
	// consumer that it fell behind and events were dropped.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Type is "job_start", "job_done", or "trap".
	Type string `json:"type"`
	Name string `json:"name"`
	Mode string `json:"mode,omitempty"`
	// TraceID links the event to its request trace (GET /traces/{id}).
	TraceID string `json:"trace_id,omitempty"`
	// CacheHit and DurMS are set on job_done.
	CacheHit bool    `json:"cache_hit,omitempty"`
	DurMS    float64 `json:"dur_ms,omitempty"`
	Err      string  `json:"err,omitempty"`
	// TrapKind/TrapPos are set on trap events.
	TrapKind string `json:"trap_kind,omitempty"`
	TrapPos  string `json:"trap_pos,omitempty"`
}

// Bus fans JobEvents out to subscribers. Publish never blocks: a subscriber
// whose buffer is full misses events (its next Seq jumps), which is the
// right trade for a live tail over a hot worker pool.
type Bus struct {
	mu     sync.Mutex
	seq    uint64
	nextID int
	subs   map[int]chan JobEvent
}

// NewBus builds an empty Bus.
func NewBus() *Bus { return &Bus{subs: make(map[int]chan JobEvent)} }

// Subscribe registers a subscriber with the given channel buffer (min 1)
// and returns its event channel plus an unsubscribe function. After
// unsubscribing the channel is closed.
func (b *Bus) Subscribe(buf int) (<-chan JobEvent, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan JobEvent, buf)
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	b.subs[id] = ch
	b.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			delete(b.subs, id)
			b.mu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

// Publish stamps the event with the next sequence number and offers it to
// every subscriber without blocking.
func (b *Bus) Publish(ev JobEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	ev.Seq = b.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	for _, ch := range b.subs {
		select {
		case ch <- ev:
		default: // subscriber is behind; drop rather than stall
		}
	}
}

// Subscribers returns the current subscriber count.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}
