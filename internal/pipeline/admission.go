package pipeline

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ShedError reports that admission control rejected a job instead of
// queueing it, because the bounded admission queue was full. RetryAfter is
// the server's estimate of when capacity will exist again (queue depth ×
// observed service rate); ccserve surfaces it as a 429 response with a
// Retry-After header.
type ShedError struct {
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("load shed: queue full, retry after %v", e.RetryAfter)
}

// svcEstimator tracks recent job service times (worker-slot occupancy:
// compile + run, not queue wait) in a fixed ring and answers p50 queries.
// A ring of the last 64 observations adapts quickly when the workload
// shifts and is cheap to snapshot; admission only needs a coarse estimate.
type svcEstimator struct {
	mu   sync.Mutex
	ring [64]time.Duration
	n    int // observations stored (saturates at len(ring))
	idx  int // next write position
}

// svcMinSamples gates the estimate: with fewer observations than this the
// estimator reports no p50 and Retry-After falls back to its cold default,
// so a cold server does not advertise a backoff built on garbage.
const svcMinSamples = 8

func (s *svcEstimator) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	s.ring[s.idx] = d
	s.idx = (s.idx + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.mu.Unlock()
}

// p50 returns the median of the recent service times, or 0 while fewer
// than svcMinSamples observations exist.
func (s *svcEstimator) p50() time.Duration {
	s.mu.Lock()
	if s.n < svcMinSamples {
		s.mu.Unlock()
		return 0
	}
	buf := make([]time.Duration, s.n)
	copy(buf, s.ring[:s.n])
	s.mu.Unlock()
	sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
	return buf[len(buf)/2]
}

// waiter is one job waiting in the admission queue.
type waiter struct {
	client *clientQ
	finish float64 // SFQ finish tag
	seq    uint64  // global enqueue order, the deterministic tie-break
	ready  chan struct{}
	// granted/gone are written under the admitter mutex and resolve the
	// race between a grant and a withdrawal: exactly one side wins and
	// closes ready.
	granted bool
	gone    bool
	traceID string
	enq     time.Time // arrival, the start of the queue wait
	depth   int64     // queue depth the job observed on arrival
}

// clientQ is one client's FIFO of waiting jobs plus its SFQ state.
type clientQ struct {
	id         string
	lastFinish float64
	waiters    []*waiter // live waiters in FIFO order (gone ones are popped lazily)
	depth      int       // live (not-gone) waiters
}

// admitter is the Runner's admission scheduler: a bounded queue of jobs
// waiting for worker slots, dispatched by start-time fair queueing (SFQ)
// across clients. Every client has the same weight, so each job costs one
// virtual unit; the waiter with the smallest finish tag is granted the next
// free slot, so a client flooding the queue cannot starve the others — its jobs
// just stack up behind ever-larger finish tags while light clients' jobs
// slot in ahead.
type admitter struct {
	mu       sync.Mutex
	slots    int // free worker slots
	workers  int
	maxQueue int // 0 = unbounded (batch mode); ccserve sets a bound
	queued   int // live waiters across all clients
	clients  map[string]*clientQ
	vtime    float64 // start tag of the most recently dispatched job
	seq      uint64
	svc      svcEstimator
	m        *metrics
}

func newAdmitter(workers, maxQueue int, m *metrics) *admitter {
	return &admitter{
		slots:    workers,
		workers:  workers,
		maxQueue: maxQueue,
		clients:  make(map[string]*clientQ),
		m:        m,
	}
}

func (a *admitter) clientLocked(id string) *clientQ {
	c := a.clients[id]
	if c == nil {
		c = &clientQ{id: id}
		a.clients[id] = c
	}
	return c
}

// retryAfterLocked estimates when a shed client should come back: the time
// the pool needs to drain the current queue plus one job, at the observed
// p50 service time per worker. Without an estimate (cold server) it falls
// back to one second — long enough to matter, short enough to retry soon.
func (a *admitter) retryAfterLocked() time.Duration {
	p50 := a.svc.p50()
	if p50 <= 0 {
		return time.Second
	}
	d := time.Duration(float64(a.queued+1) / float64(a.workers) * float64(p50))
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// RetryAfter estimates the current backoff hint (exposed for ccserve's
// Retry-After header on non-shed errors and for introspection).
func (a *admitter) RetryAfter() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked()
}

// arrive makes a job's arrival-time decision, on the caller's goroutine:
// a free slot (a nil waiter), a shed, or a place in the queue to wait on.
// A job holding a slot MUST release() it when execution finishes.
func (a *admitter) arrive(clientID, traceID string) (*waiter, error) {
	a.mu.Lock()
	// Fast path: a free slot and an empty queue — no policy applies.
	if a.slots > 0 && a.queued == 0 {
		a.slots--
		a.mu.Unlock()
		a.m.queueAdmitted(1, 0, traceID, false)
		return nil, nil
	}
	// Shed before queueing: a rejected job never occupies a slot in the
	// bounded queue and never appears in the queue-depth gauge.
	if a.maxQueue > 0 && a.queued >= a.maxQueue {
		err := &ShedError{RetryAfter: a.retryAfterLocked()}
		a.mu.Unlock()
		a.m.jobShed(traceID)
		return nil, err
	}
	c := a.clientLocked(clientID)
	start := a.vtime
	if c.lastFinish > start {
		start = c.lastFinish
	}
	w := &waiter{client: c, finish: start + 1, seq: a.seq, ready: make(chan struct{}), traceID: traceID,
		enq: time.Now()}
	a.seq++
	c.lastFinish = w.finish
	c.waiters = append(c.waiters, w)
	c.depth++
	a.queued++
	w.depth = int64(a.queued)
	// A slot may be free with a non-empty queue (it was just released and
	// granted us, or cancellations emptied the queue out from under a
	// release); dispatch now so the queue never idles with capacity free.
	a.dispatchLocked()
	a.mu.Unlock()
	a.m.update(func(acc *Metrics) { acc.QueueDepthNow++ })
	return w, nil
}

// wait blocks until a queued job holds a worker slot or is withdrawn,
// and returns the queue wait and whether the slot is held. A nil waiter
// got its slot on arrival.
func (a *admitter) wait(w *waiter) (time.Duration, bool) {
	if w == nil {
		return 0, true
	}
	<-w.ready
	if w.gone {
		return 0, false
	}
	wait := time.Since(w.enq)
	a.m.queueAdmitted(w.depth, wait, w.traceID, true)
	return wait, true
}

// withdraw takes a job that is still queued out of the queue and wakes its
// wait; by the time it returns, the queue gauges no longer count the job.
// A job already granted its slot keeps it.
func (a *admitter) withdraw(w *waiter) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w == nil || w.granted || w.gone {
		return
	}
	w.gone = true
	w.client.depth--
	a.queued--
	close(w.ready)
	a.m.update(func(acc *Metrics) { acc.QueueDepthNow-- })
}

// dispatchLocked grants free slots to waiting jobs, smallest SFQ finish
// tag first (ties broken by enqueue order so dispatch is deterministic).
func (a *admitter) dispatchLocked() {
	for a.slots > 0 {
		var best *clientQ
		for _, c := range a.clients {
			// Drop cancelled waiters from the head lazily; their queue
			// accounting was already reversed at cancellation.
			for len(c.waiters) > 0 && c.waiters[0].gone {
				c.waiters = c.waiters[1:]
			}
			if len(c.waiters) == 0 {
				continue
			}
			h := c.waiters[0]
			if best == nil || h.finish < best.waiters[0].finish ||
				(h.finish == best.waiters[0].finish && h.seq < best.waiters[0].seq) {
				best = c
			}
		}
		if best == nil {
			return
		}
		w := best.waiters[0]
		best.waiters = best.waiters[1:]
		best.depth--
		a.queued--
		a.slots--
		w.granted = true
		a.vtime = w.finish - 1
		close(w.ready)
		if len(best.waiters) == 0 && best.depth == 0 {
			// Idle clients are forgotten so the map cannot grow without
			// bound under per-connection client IDs. SFQ start tags are
			// max(vtime, lastFinish), so losing a stale lastFinish below
			// vtime changes nothing.
			delete(a.clients, best.id)
		}
	}
}

// release returns a worker slot and hands it to the next waiter, if any.
// d is the job's service time (slot occupancy), fed to the estimator that
// drives Retry-After.
func (a *admitter) release(d time.Duration) {
	a.svc.observe(d)
	a.mu.Lock()
	a.slots++
	a.dispatchLocked()
	a.mu.Unlock()
}

// ClientDepths snapshots the live per-client queue depths (only clients
// with waiting jobs appear).
func (a *admitter) ClientDepths() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.clients))
	for id, c := range a.clients {
		if c.depth > 0 {
			out[id] = c.depth
		}
	}
	return out
}
