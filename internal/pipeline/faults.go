package pipeline

import (
	"context"
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"

	"gocured"
	"gocured/internal/infer"
)

// Faults is the pipeline's deterministic fault-injection harness. The
// admission and overload tests use it to simulate slow or stalled workers,
// a wedged artifact store, and adversarial arrival patterns without any
// reliance on wall-clock races: every fault is a hook the test controls
// explicitly. A nil *Faults (the production default) costs one nil check
// per job.
type Faults struct {
	// OnExecute is called when a job actually begins executing on a worker
	// slot — after admission, before any compile work. Coalesced followers
	// and shed jobs never trigger it, which makes it the harness's
	// compile/execution counter.
	OnExecute func(job Job)
	// OnDone is called when a job's execution finishes (any outcome),
	// still on the worker goroutine.
	OnDone func(job Job)
	// ExecGate, when it returns a non-nil channel, stalls the execution
	// until that channel closes: the "stalled worker" fault. The worker
	// slot stays occupied the whole time, so queueing and timeout policies
	// see exactly what a wedged compile looks like.
	ExecGate func(job Job) <-chan struct{}
	// ExecDelay injects an artificial service time: the "slow worker"
	// fault, used to make service-time distributions deterministic.
	ExecDelay func(job Job) time.Duration
	// WrapSummaries decorates the artifact-store summary source each
	// compile sees; wrap with WedgeSource to simulate a wedged store whose
	// reads and writes hang.
	WrapSummaries func(src gocured.SummarySource) gocured.SummarySource
}

// beforeExec applies the pre-execution faults on the worker goroutine.
func (f *Faults) beforeExec(job Job) {
	if f == nil {
		return
	}
	if f.OnExecute != nil {
		f.OnExecute(job)
	}
	if f.ExecGate != nil {
		if ch := f.ExecGate(job); ch != nil {
			<-ch
		}
	}
	if f.ExecDelay != nil {
		if d := f.ExecDelay(job); d > 0 {
			time.Sleep(d)
		}
	}
}

// afterExec applies the post-execution hook on the worker goroutine.
func (f *Faults) afterExec(job Job) {
	if f != nil && f.OnDone != nil {
		f.OnDone(job)
	}
}

// StallGate stalls gated executions until the test releases them, one at a
// time and in arrival order — the deterministic scheduler probe: with it,
// a test steps the worker pool one completed job at a time and observes
// exactly which waiter the admission policy dispatches next.
type StallGate struct {
	mu      sync.Mutex
	waiting []chan struct{}
	arrived int
}

// NewStallGate returns an empty gate. Wire it as Faults.ExecGate with
// g.Gate.
func NewStallGate() *StallGate { return &StallGate{} }

// Gate is the Faults.ExecGate hook: each execution blocks on a fresh
// channel until released.
func (g *StallGate) Gate(Job) <-chan struct{} {
	ch := make(chan struct{})
	g.mu.Lock()
	g.waiting = append(g.waiting, ch)
	g.arrived++
	g.mu.Unlock()
	return ch
}

// Arrived reports how many executions have reached the gate so far
// (released or not); tests poll it to know a job holds a worker slot.
func (g *StallGate) Arrived() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.arrived
}

// WaitArrived polls until n executions have reached the gate or the
// timeout lapses; it reports whether the count was reached.
func (g *StallGate) WaitArrived(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for g.Arrived() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Release unblocks up to n stalled executions in arrival order and
// returns how many it released.
func (g *StallGate) Release(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	released := 0
	for released < n && len(g.waiting) > 0 {
		close(g.waiting[0])
		g.waiting = g.waiting[1:]
		released++
	}
	return released
}

// ReleaseAll unblocks every currently stalled execution.
func (g *StallGate) ReleaseAll() int {
	g.mu.Lock()
	n := len(g.waiting)
	g.mu.Unlock()
	return g.Release(n)
}

// ExecTracker counts executions and their peak concurrency. Wire Begin as
// Faults.OnExecute and End as Faults.OnDone; Peak then proves the worker
// pool never over-admits (a double-released slot shows up as Peak >
// Workers), and Total proves coalescing deduplicated work.
type ExecTracker struct {
	cur, peak, total atomic.Int64
}

// Begin is the Faults.OnExecute hook.
func (t *ExecTracker) Begin(Job) {
	t.total.Add(1)
	n := t.cur.Add(1)
	for {
		p := t.peak.Load()
		if n <= p || t.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// End is the Faults.OnDone hook.
func (t *ExecTracker) End(Job) { t.cur.Add(-1) }

// Total is the number of executions that actually ran.
func (t *ExecTracker) Total() int64 { return t.total.Load() }

// Peak is the maximum concurrent executions observed.
func (t *ExecTracker) Peak() int64 { return t.peak.Load() }

// Current is the number of executions running right now.
func (t *ExecTracker) Current() int64 { return t.cur.Load() }

// WedgeSource wraps a SummarySource so every Load and Save blocks until
// Gate closes: the wedged-artifact-store fault. Compiles that consult the
// store hang inside inference, occupying their worker slot, until the
// test unwedges the store — exactly the failure mode of a hung disk or a
// stuck remote cache.
type WedgeSource struct {
	Inner gocured.SummarySource
	Gate  <-chan struct{}
}

func (w *WedgeSource) Load(fn string, body, decls [sha256.Size]byte) (*infer.FuncSummary, bool) {
	<-w.Gate
	return w.Inner.Load(fn, body, decls)
}

func (w *WedgeSource) Save(sum *infer.FuncSummary, fn string, body, decls [sha256.Size]byte) {
	<-w.Gate
	w.Inner.Save(sum, fn, body, decls)
}

// BurstDo is the burst arrival pattern: every job is submitted at the same
// instant (a common barrier releases all submitter goroutines together),
// modelling a thundering herd rather than DoAll's as-fast-as-possible
// spawn loop. Results return in input order.
func BurstDo(ctx context.Context, r *Runner, jobs []Job) []*JobResult {
	start := make(chan struct{})
	results := make([]*JobResult, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = r.Do(ctx, jobs[i])
		}(i)
	}
	close(start)
	wg.Wait()
	return results
}
