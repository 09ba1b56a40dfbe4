package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gocured"
	"gocured/internal/trace"
)

// waitCond polls cond until it holds or the timeout lapses.
func waitCond(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// uniqueSource returns a compilable unit no other test job shares, so the
// compile cache and the coalescer both see a distinct identity.
func uniqueSource(tag string, n int) string {
	return fmt.Sprintf("int main(void) { int x = %d; return x &%d; /* %s */ }\n", n, n%7+1, tag)
}

// drainGate keeps releasing every execution that reaches the gate until
// the returned stop function is called — for test phases where the order
// of dispatch no longer matters and the pool should just drain.
func drainGate(g *StallGate) (stop func()) {
	done := make(chan struct{})
	go func() {
		for {
			g.ReleaseAll()
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	return func() { close(done) }
}

// primeSvc feeds the admitter's service-time estimator directly so
// Retry-After checks don't depend on real compile timings.
func primeSvc(r *Runner, d time.Duration) {
	for i := 0; i < svcMinSamples; i++ {
		r.adm.svc.observe(d)
	}
}

// TestAdmissionQueueFullShed pins the bounded-queue policy: with the one
// worker wedged and the queue at capacity, the next arrival is rejected
// with a ShedError and a Retry-After of the queue's drain time at the
// observed p50, and the rejection never touches the queue gauges or wait
// histograms.
func TestAdmissionQueueFullShed(t *testing.T) {
	gate := NewStallGate()
	r := NewRunner(RunnerOptions{
		Workers:    1,
		QueueDepth: 2,
		Faults:     &Faults{ExecGate: gate.Gate},
	})
	ctx := context.Background()

	done := make(chan *JobResult, 3)
	submit := func(i int) {
		go func() {
			done <- r.Do(ctx, Job{Name: "q.c", Source: uniqueSource("qfull", i)})
		}()
	}
	// One job occupies the worker (stalled at the gate), two fill the queue.
	submit(0)
	if !gate.WaitArrived(1, 5*time.Second) {
		t.Fatal("first job never reached the worker")
	}
	submit(1)
	submit(2)
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().QueueDepthNow == 2 }, "queue depth 2")

	// The fourth arrival must shed, synchronously.
	primeSvc(r, 50*time.Millisecond)
	res := r.Do(ctx, Job{Name: "shed.c", Source: uniqueSource("qfull", 3)})
	var shed *ShedError
	if !errors.As(res.Err, &shed) {
		t.Fatalf("expected ShedError, got %v", res.Err)
	}
	// (queued+1)/workers × p50 = 3 × 50ms.
	if shed.RetryAfter != 150*time.Millisecond {
		t.Fatalf("Retry-After = %v, want 150ms", shed.RetryAfter)
	}
	if !strings.Contains(res.Err.Error(), res.TraceID) {
		t.Fatalf("shed error %q does not carry trace ID %s", res.Err, res.TraceID)
	}

	m := r.Metrics()
	if m.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", m.Shed)
	}
	if m.ShedExemplar == nil || m.ShedExemplar.TraceID != res.TraceID {
		t.Fatalf("shed exemplar = %+v, want trace %s", m.ShedExemplar, res.TraceID)
	}
	if m.QueueDepthNow != 2 {
		t.Fatalf("shed touched the queue gauge: depth %d, want 2", m.QueueDepthNow)
	}

	stop := drainGate(gate)
	defer stop()
	for i := 0; i < 3; i++ {
		if res := <-done; res.Err != nil {
			t.Fatalf("admitted job failed: %v", res.Err)
		}
	}
	// Stragglers released from the gate may still be draining; gauges must
	// settle to zero.
	waitCond(t, 5*time.Second, func() bool {
		m := r.Metrics()
		return m.QueueDepthNow == 0 && m.JobsInFlight == 0
	}, "gauges to settle")
	m = r.Metrics()
	if m.Admitted != 3 {
		t.Fatalf("admitted = %d, want 3", m.Admitted)
	}
	if m.QueueWait.Count != 3 {
		t.Fatalf("QueueWait recorded %d observations, want 3 (admitted only)", m.QueueWait.Count)
	}
}

// TestAdmissionFairness is the property-style fairness test: K clients
// with skewed offered load enqueue under a wedged worker in a
// seed-randomized interleaving; dispatch order must give every backlogged
// client at least an equal share minus tolerance, and every client must
// make progress early (no starvation).
func TestAdmissionFairness(t *testing.T) {
	type clientSpec struct {
		id   string
		jobs int
	}
	// Every client is entitled to 1/3 of the slots while backlogged.
	specs := []clientSpec{
		{"heavy", 12},
		{"light", 4},
		{"tiny", 4},
	}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			gate := NewStallGate()
			var mu sync.Mutex
			var grantOrder []string
			total := 0
			for _, s := range specs {
				total += s.jobs
			}
			r := NewRunner(RunnerOptions{
				Workers: 1,
				Faults: &Faults{
					OnExecute: func(job Job) {
						mu.Lock()
						grantOrder = append(grantOrder, job.ClientID)
						mu.Unlock()
					},
					ExecGate: gate.Gate,
				},
			})
			ctx := context.Background()

			// Wedge the worker with a plug job so every client job queues.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.Do(ctx, Job{Name: "plug.c", ClientID: "plug", Source: uniqueSource("plug", int(seed))})
			}()
			if !gate.WaitArrived(1, 5*time.Second) {
				t.Fatal("plug job never started")
			}

			// Seed-randomized interleaving of the offered load, enqueued one
			// at a time (each submission observed in the queue gauge before
			// the next) so the arrival order is exactly the shuffled order.
			rng := rand.New(rand.NewSource(seed))
			var arrivals []string
			for _, s := range specs {
				for i := 0; i < s.jobs; i++ {
					arrivals = append(arrivals, s.id)
				}
			}
			rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
			for i, id := range arrivals {
				i, id := i, id
				wg.Add(1)
				go func() {
					defer wg.Done()
					res := r.Do(ctx, Job{Name: id + ".c", ClientID: id,
						Source: uniqueSource(id, i+1000*int(seed))})
					if res.Err != nil {
						t.Errorf("client %s job failed: %v", id, res.Err)
					}
				}()
				want := int64(i + 1)
				waitCond(t, 5*time.Second, func() bool { return r.Metrics().QueueDepthNow == want },
					fmt.Sprintf("enqueue %d", i+1))
			}

			// Per-client depths are now visible in the metrics snapshot.
			m := r.Metrics()
			for _, s := range specs {
				if m.ClientQueueDepths[s.id] != s.jobs {
					t.Fatalf("client %s queue depth = %d, want %d (%v)",
						s.id, m.ClientQueueDepths[s.id], s.jobs, m.ClientQueueDepths)
				}
			}

			// Step the scheduler one completed job at a time: each release
			// frees the slot, the admitter dispatches exactly one waiter, and
			// that waiter's arrival at the gate appends to grantOrder.
			gate.Release(1) // plug finishes
			for i := 0; i < total; i++ {
				if !gate.WaitArrived(2+i, 5*time.Second) {
					t.Fatalf("dispatch %d never reached the gate", i+1)
				}
				gate.Release(1)
			}
			wg.Wait()

			mu.Lock()
			order := append([]string(nil), grantOrder...)
			mu.Unlock()
			// The plug executes first and is not part of the fairness load.
			if len(order) != total+1 || order[0] != "plug" {
				t.Fatalf("granted %d jobs (first %q), want %d led by the plug",
					len(order), order[0], total)
			}
			order = order[1:]

			// No starvation: every client is dispatched within the first
			// K+2 grants (SFQ guarantees each backlogged client a slot per
			// virtual round).
			first := map[string]int{}
			for i, id := range order {
				if _, ok := first[id]; !ok {
					first[id] = i
				}
			}
			for _, s := range specs {
				idx, ok := first[s.id]
				if !ok {
					t.Fatalf("client %s starved entirely (order %v)", s.id, order)
				}
				if idx > len(specs)+2 {
					t.Errorf("client %s first dispatched at position %d (order %v)", s.id, idx, order)
				}
			}

			// Fair share while all clients stay backlogged: light and tiny
			// hold 4 jobs each, so for the first 12 grants every client has
			// work queued. Each client's share must be at least 1/3 minus a
			// one-slot-per-round tolerance.
			window := 12
			counts := map[string]int{}
			for _, id := range order[:window] {
				counts[id]++
			}
			for _, s := range specs {
				share := window / len(specs)
				min := share - 2
				if counts[s.id] < min {
					t.Errorf("client %s got %d of first %d grants, want >= %d (order %v)",
						s.id, counts[s.id], window, min, order)
				}
			}
		})
	}
}

// TestCoalescingRace is the coalescing correctness test: N concurrent
// identical run jobs must cost exactly one execution, every caller must
// receive a bit-identical payload, and the follower envelopes must say so.
func TestCoalescingRace(t *testing.T) {
	const n = 32
	gate := NewStallGate()
	tracker := &ExecTracker{}
	r := NewRunner(RunnerOptions{
		Workers:            4,
		CoalesceJobs:       true,
		TraceBufferEntries: 2 * n,
		Faults: &Faults{
			OnExecute: tracker.Begin,
			OnDone:    tracker.End,
			ExecGate:  gate.Gate,
		},
	})

	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: "same.c", Source: tinyOK, Run: true, Mode: gocured.ModeCured,
			TraceID: trace.NewW3CTraceID()}
	}
	resCh := make(chan []*JobResult, 1)
	go func() { resCh <- BurstDo(context.Background(), r, jobs) }()

	// Hold the single leader execution at the gate until every follower has
	// joined the flight, so the race window is maximally wide.
	if !gate.WaitArrived(1, 5*time.Second) {
		t.Fatal("leader never started executing")
	}
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().Coalesced == n-1 }, "followers to join")
	gate.ReleaseAll()

	results := <-resCh
	var leader *JobResult
	followers := 0
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d failed: %v", i, res.Err)
		}
		if res.Run == nil {
			t.Fatalf("job %d missing run result", i)
		}
		if res.Tier == "coalesced" {
			followers++
			if !res.CacheHit {
				t.Errorf("follower %d not marked CacheHit", i)
			}
		} else {
			leader = res
		}
	}
	if followers != n-1 || leader == nil {
		t.Fatalf("got %d followers of %d jobs, want %d and one leader", followers, n, n-1)
	}
	for i, res := range results {
		// Bit-identical payloads: same content address and identical
		// execution observables.
		if res.Key != leader.Key {
			t.Fatalf("job %d key %s != leader %s", i, res.Key, leader.Key)
		}
		if res.Run.Stdout != leader.Run.Stdout || res.Run.ExitCode != leader.Run.ExitCode ||
			res.Run.Steps != leader.Run.Steps || res.Run.Checks != leader.Run.Checks {
			t.Fatalf("job %d run result diverges from leader", i)
		}
		// Every caller keeps its own trace identity even when the execution
		// was shared: the response must echo the id the caller sent (the
		// trace-context round-trip contract).
		if res.TraceID != jobs[i].TraceID {
			t.Fatalf("job %d trace %s != its own job trace %s", i, res.TraceID, jobs[i].TraceID)
		}
	}
	// Follower traces are queryable stubs that name the leader's trace, so
	// the shared execution stays reachable from either id.
	for i, res := range results {
		if res.Tier != "coalesced" {
			continue
		}
		reqs, ok := r.Traces().Get(res.TraceID)
		if !ok || len(reqs) != 1 {
			t.Fatalf("follower %d trace %s: %d requests in buffer, want 1", i, res.TraceID, len(reqs))
		}
		rt := reqs[0]
		if len(rt.Spans) != 1 || !strings.Contains(rt.Spans[0].Name, leader.TraceID) {
			t.Fatalf("follower %d stub trace spans = %+v, want one span naming leader trace %s",
				i, rt.Spans, leader.TraceID)
		}
	}
	if got := tracker.Total(); got != 1 {
		t.Fatalf("%d executions for %d identical jobs, want exactly 1", got, n)
	}
	if m := r.Metrics(); m.Coalesced != n-1 {
		t.Fatalf("coalesced counter = %d, want %d", m.Coalesced, n-1)
	}
}

// TestCoalescingWaiterCancel pins the shared-execution lifecycle: a
// mid-flight cancellation of one waiter must not cancel the execution the
// other participants are waiting on.
func TestCoalescingWaiterCancel(t *testing.T) {
	gate := NewStallGate()
	tracker := &ExecTracker{}
	r := NewRunner(RunnerOptions{
		Workers:      2,
		CoalesceJobs: true,
		Faults:       &Faults{OnExecute: tracker.Begin, OnDone: tracker.End, ExecGate: gate.Gate},
	})
	job := Job{Name: "shared.c", Source: tinyOK, Run: true, Mode: gocured.ModeCured}

	leaderDone := make(chan *JobResult, 1)
	go func() { leaderDone <- r.Do(context.Background(), job) }()
	if !gate.WaitArrived(1, 5*time.Second) {
		t.Fatal("execution never started")
	}

	cancelCtx, cancel := context.WithCancel(context.Background())
	cancelledDone := make(chan *JobResult, 1)
	go func() { cancelledDone <- r.Do(cancelCtx, job) }()
	survivorDone := make(chan *JobResult, 1)
	go func() { survivorDone <- r.Do(context.Background(), job) }()
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().Coalesced == 2 }, "both followers to join")

	// Cancel one follower mid-flight: it must return promptly with the
	// context error while the execution keeps running for everyone else.
	cancel()
	res := <-cancelledDone
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", res.Err)
	}
	if tracker.Current() != 1 {
		t.Fatalf("shared execution stopped when one waiter cancelled")
	}

	gate.ReleaseAll()
	for _, ch := range []chan *JobResult{leaderDone, survivorDone} {
		if res := <-ch; res.Err != nil {
			t.Fatalf("surviving participant failed: %v", res.Err)
		}
	}
	if got := tracker.Total(); got != 1 {
		t.Fatalf("%d executions, want 1", got)
	}
}

// TestQueueCancelStorm is the queue-accounting regression test: when half
// the queued callers abandon the queue at once, the depth gauge must track
// exactly, settle to zero, and the QueueWait/QueueDepth histograms must
// record admitted jobs only.
func TestQueueCancelStorm(t *testing.T) {
	const queued = 16
	gate := NewStallGate()
	r := NewRunner(RunnerOptions{Workers: 1, Faults: &Faults{ExecGate: gate.Gate}})
	ctx := context.Background()

	plugDone := make(chan *JobResult, 1)
	go func() {
		plugDone <- r.Do(ctx, Job{Name: "plug.c", Source: uniqueSource("storm", 0)})
	}()
	if !gate.WaitArrived(1, 5*time.Second) {
		t.Fatal("plug never started")
	}

	type waiter struct {
		cancel context.CancelFunc
		done   chan *JobResult
	}
	waiters := make([]waiter, queued)
	for i := range waiters {
		wctx, cancel := context.WithCancel(ctx)
		done := make(chan *JobResult, 1)
		waiters[i] = waiter{cancel, done}
		i := i
		go func() {
			done <- r.Do(wctx, Job{Name: "w.c", Source: uniqueSource("storm", i+1)})
		}()
	}
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().QueueDepthNow == queued },
		"all waiters queued")

	// Burst cancel storm: every even waiter abandons the queue at once.
	for i := 0; i < queued; i += 2 {
		waiters[i].cancel()
	}
	for i := 0; i < queued; i += 2 {
		if res := <-waiters[i].done; !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("cancelled waiter %d returned %v", i, res.Err)
		}
	}
	if depth := r.Metrics().QueueDepthNow; depth != queued/2 {
		t.Fatalf("queue depth after cancel storm = %d, want %d", depth, queued/2)
	}

	// Drain the survivors; dispatch order among them no longer matters.
	stop := drainGate(gate)
	defer stop()
	if res := <-plugDone; res.Err != nil {
		t.Fatalf("plug failed: %v", res.Err)
	}
	for i := 1; i < queued; i += 2 {
		if res := <-waiters[i].done; res.Err != nil {
			t.Fatalf("surviving waiter %d failed: %v", i, res.Err)
		}
	}

	waitCond(t, 5*time.Second, func() bool {
		m := r.Metrics()
		return m.QueueDepthNow == 0 && m.JobsInFlight == 0
	}, "gauges to settle")
	m := r.Metrics()
	wantAdmitted := uint64(1 + queued/2) // plug + survivors
	if m.Admitted != wantAdmitted {
		t.Fatalf("admitted = %d, want %d", m.Admitted, wantAdmitted)
	}
	if m.QueueWait.Count != wantAdmitted {
		t.Fatalf("QueueWait recorded %d observations, want %d (admitted only, never cancelled jobs)",
			m.QueueWait.Count, wantAdmitted)
	}
	if m.QueueDepth.Count != wantAdmitted {
		t.Fatalf("QueueDepth recorded %d observations, want %d", m.QueueDepth.Count, wantAdmitted)
	}
}

// TestTimeoutReleasesSlotOnce is the slot-leak regression test: a job that
// times out while its execution is wedged must return its worker slot
// exactly once — after the execution actually stops — and the in-flight
// gauge must decrement exactly once.
func TestTimeoutReleasesSlotOnce(t *testing.T) {
	gate := NewStallGate()
	tracker := &ExecTracker{}
	r := NewRunner(RunnerOptions{
		Workers:    1,
		JobTimeout: 30 * time.Millisecond,
		Faults:     &Faults{OnExecute: tracker.Begin, OnDone: tracker.End, ExecGate: gate.Gate},
	})
	ctx := context.Background()

	res := r.Do(ctx, Job{Name: "wedged.c", Source: uniqueSource("leak", 0)})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "timed out") {
		t.Fatalf("expected timeout error, got %v", res.Err)
	}
	// The caller is gone but the execution still occupies the slot: the
	// in-flight gauge must show it, and a second job must queue, not run.
	if m := r.Metrics(); m.JobsInFlight != 1 || m.JobsTimedOut != 1 {
		t.Fatalf("after timeout: in-flight %d timed-out %d, want 1/1", m.JobsInFlight, m.JobsTimedOut)
	}
	done2 := make(chan *JobResult, 1)
	go func() {
		done2 <- r.Do(ctx, Job{Name: "next.c", Source: uniqueSource("leak", 1), Timeout: 5 * time.Second})
	}()
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().QueueDepthNow == 1 }, "second job to queue")
	if tracker.Total() != 1 {
		t.Fatalf("second job executed while the slot was wedged")
	}

	// Unwedge: the abandoned execution finishes, releases its slot exactly
	// once, and the queued job runs.
	gate.Release(1)
	if !gate.WaitArrived(2, 5*time.Second) {
		t.Fatal("queued job never got the released slot")
	}
	gate.Release(1)
	if res := <-done2; res.Err != nil {
		t.Fatalf("second job failed: %v", res.Err)
	}
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().JobsInFlight == 0 }, "in-flight to settle")
	if peak := tracker.Peak(); peak != 1 {
		t.Fatalf("peak concurrency %d on a 1-worker pool: slot released more than once", peak)
	}
	m := r.Metrics()
	if m.Admitted != 2 || m.JobsRun != 2 {
		t.Fatalf("admitted %d run %d, want 2/2", m.Admitted, m.JobsRun)
	}
}

// TestTimeoutIncludesQueueWait pins the one timeout rule: a job's timeout
// counts from Do entry, queue wait included, whether or not coalescing is
// on. A job that times out while queued leaves the queue without ever
// being admitted and counts exactly one timeout.
func TestTimeoutIncludesQueueWait(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
			plug := make(chan struct{})
			r := NewRunner(RunnerOptions{Workers: 1, CoalesceJobs: coalesce, Faults: &Faults{
				ExecGate: func(j Job) <-chan struct{} {
					if j.Name == "plug.c" {
						return plug
					}
					return nil
				}}})
			ctx := context.Background()
			plugDone := make(chan *JobResult, 1)
			go func() { plugDone <- r.Do(ctx, Job{Name: "plug.c", Source: uniqueSource("qtimeout", 0)}) }()
			waitCond(t, 5*time.Second, func() bool { return r.Metrics().JobsInFlight == 1 }, "plug to execute")
			admitted := r.Metrics().Admitted

			// The plug holds the worker far longer than the 30ms timeout; the
			// bound is generous only so a loaded -race run cannot flake.
			start := time.Now()
			done := make(chan *JobResult, 1)
			go func() {
				done <- r.Do(ctx, Job{Name: "late.c", Source: uniqueSource("qtimeout", 1), Timeout: 30 * time.Millisecond})
			}()
			select {
			case res := <-done:
				if res.Err == nil || !strings.Contains(res.Err.Error(), "timed out") {
					t.Fatalf("queued job returned %v, want a timeout", res.Err)
				}
				if el := time.Since(start); el < 30*time.Millisecond {
					t.Errorf("timed out after %v, before its 30ms timeout", el)
				}
			case <-time.After(5 * time.Second):
				t.Error("queued job did not time out while the worker was plugged")
			}
			waitCond(t, 5*time.Second, func() bool { return r.Metrics().QueueDepthNow == 0 }, "timed-out job to leave the queue")
			if m := r.Metrics(); m.Admitted != admitted || m.JobsTimedOut != 1 {
				t.Errorf("after timeout: admitted %d timed-out %d, want %d/1", m.Admitted, m.JobsTimedOut, admitted)
			}

			close(plug)
			if res := <-plugDone; res.Err != nil {
				t.Fatalf("plug failed: %v", res.Err)
			}
			waitCond(t, 5*time.Second, func() bool { return r.Metrics().JobsInFlight == 0 }, "in-flight to settle")
			if m := r.Metrics(); m.Admitted != admitted || m.JobsTimedOut != 1 {
				t.Errorf("after drain: admitted %d timed-out %d, want %d/1", m.Admitted, m.JobsTimedOut, admitted)
			}
		})
	}
}

// TestWedgedStore drives the wedged-artifact-store fault: a compile whose
// store reads hang occupies its worker slot (backpressure, not collapse),
// queues later arrivals, and completes once the store unwedges.
func TestWedgedStore(t *testing.T) {
	wedge := make(chan struct{})
	r := NewRunner(RunnerOptions{
		Workers: 1,
		Store:   openArtifacts(t, t.TempDir()),
		Faults: &Faults{
			WrapSummaries: func(src gocured.SummarySource) gocured.SummarySource {
				return &WedgeSource{Inner: src, Gate: wedge}
			},
		},
	})
	ctx := context.Background()

	done := make(chan *JobResult, 1)
	go func() {
		done <- r.Do(ctx, Job{Name: "wedge.c", Source: uniqueSource("wedge", 0)})
	}()
	// The compile must be stuck inside inference (slot held, nothing
	// finished), and a second arrival must queue behind it.
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().JobsInFlight == 1 }, "compile to start")
	done2 := make(chan *JobResult, 1)
	go func() {
		done2 <- r.Do(ctx, Job{Name: "behind.c", Source: uniqueSource("wedge", 1)})
	}()
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().QueueDepthNow == 1 }, "second job to queue")
	select {
	case res := <-done:
		t.Fatalf("compile finished with the store wedged: %+v", res.Err)
	case <-time.After(50 * time.Millisecond):
	}

	close(wedge)
	for _, ch := range []chan *JobResult{done, done2} {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("job failed after unwedging: %v", res.Err)
		}
		if res.CacheHit {
			t.Fatalf("expected a real compile, got cache hit")
		}
	}
	if m := r.Metrics(); m.QueueDepthNow != 0 || m.JobsInFlight != 0 {
		t.Fatalf("gauges did not settle: %+v", m)
	}
}

// TestAdmitterSFQDispatchOrder pins the scheduler's dispatch order at the
// unit level: smallest finish tag first, enqueue order breaking ties, so a
// client that queued first still alternates with a later one.
func TestAdmitterSFQDispatchOrder(t *testing.T) {
	m := newMetrics()
	a := newAdmitter(1, 0, m)

	// Occupy the only slot so everything queues.
	if _, err := a.arrive("plug", "t0"); err != nil {
		t.Fatal(err)
	}

	type admitRes struct {
		id  string
		err error
	}
	grants := make(chan admitRes, 10)
	// enqueue submits one waiter and blocks until the admitter has queued
	// it, so arrival order (and therefore seq tie-breaking) is exact.
	enqueue := func(id string, wantQueued int) {
		go func() {
			w, err := a.arrive(id, "t-"+id)
			if err == nil {
				a.wait(w)
			}
			grants <- admitRes{id, err}
		}()
		waitCond(t, 5*time.Second, func() bool {
			a.mu.Lock()
			q := a.queued
			a.mu.Unlock()
			return q == wantQueued
		}, fmt.Sprintf("waiter %d to queue", wantQueued))
	}

	// Enqueue deterministically: a, a, a, b, b.
	for i, id := range []string{"a", "a", "a", "b", "b"} {
		enqueue(id, i+1)
	}

	// Finish tags: a's jobs at 1, 2, 3; b's at 1, 2. Expected dispatch:
	// a (1, earlier seq than b's 1), b (1), a (2), b (2), a (3).
	want := []string{"a", "b", "a", "b", "a"}
	for i, wantID := range want {
		a.release(10 * time.Millisecond)
		got := <-grants
		if got.err != nil {
			t.Fatalf("grant %d errored: %v", i, got.err)
		}
		if got.id != wantID {
			t.Fatalf("grant %d went to %s, want %s", i, got.id, wantID)
		}
	}
	// All slots drain; idle clients are forgotten.
	for i := 0; i < len(want); i++ {
		a.release(10 * time.Millisecond)
	}
	if depths := a.ClientDepths(); len(depths) != 0 {
		t.Fatalf("client depths not empty after drain: %v", depths)
	}
}

// TestAdmissionPromFamilies checks the exposition contract for the new
// admission families: always declared, and the shed exemplar present only
// in the OpenMetrics dialect.
func TestAdmissionPromFamilies(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 1, QueueDepth: 3})
	m := r.Metrics()
	m.Shed = 2
	m.ShedExemplar = &Exemplar{TraceID: "00000000deadbeef", ValueMS: 1}
	m.Coalesced = 5
	m.ClientQueueDepths = map[string]int{"tenant-a": 3}

	var prom, om strings.Builder
	WritePrometheus(&prom, m)
	WriteOpenMetrics(&om, m)

	for _, want := range []string{
		"gocured_queue_limit 3",
		"gocured_admitted_total 0",
		"gocured_shed_total 2",
		"gocured_coalesced_total 5",
		`gocured_client_queue_depth{client="tenant-a"} 3`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("classic exposition missing %q", want)
		}
		if !strings.Contains(om.String(), want) {
			t.Errorf("OpenMetrics exposition missing %q", want)
		}
	}
	// Exemplars are OpenMetrics-only: the 0.0.4 parser rejects suffixes.
	if strings.Contains(prom.String(), "# {") {
		t.Error("classic exposition carries exemplars")
	}
	if !strings.Contains(om.String(), `gocured_shed_total 2 # {trace_id="00000000deadbeef"}`) {
		t.Error("OpenMetrics shed counter missing its exemplar")
	}
}

// TestCoalesceKeyIdentity pins the coalescing identity: jobs may share an
// execution only when a cache hit could serve both the same payload, so
// every option that changes the payload must split the key. The run half
// is checked by a reflect loop over every RunOptions field, so a field
// added later cannot be left out of the key unnoticed.
func TestCoalesceKeyIdentity(t *testing.T) {
	base := Job{Name: "a.c", Source: tinyOK, Run: true, Mode: gocured.ModeCured}
	same := base
	if coalesceKey(base) != coalesceKey(same) {
		t.Fatal("identical jobs produced different coalesce keys")
	}
	vary := map[string]func(*Job){
		"Source":     func(j *Job) { j.Source = tinyOK + " " },
		"Name":       func(j *Job) { j.Name = "b.c" },
		"NoOptimize": func(j *Job) { j.Options.NoOptimize = true },
		"Run":        func(j *Job) { j.Run = false },
		"Mode":       func(j *Job) { j.Mode = gocured.ModeRaw },
	}
	ro := reflect.TypeOf(gocured.RunOptions{})
	for i := 0; i < ro.NumField(); i++ {
		i, f := i, ro.Field(i)
		vary["RunOptions."+f.Name] = func(j *Job) {
			v := reflect.ValueOf(&j.RunOptions).Elem().Field(i)
			switch {
			case v.Kind() == reflect.Bool:
				v.SetBool(true)
			case v.CanInt():
				v.SetInt(7)
			case v.CanUint():
				v.SetUint(7)
			case v.Kind() == reflect.String:
				v.SetString("x")
			case v.Type() == reflect.TypeOf([]byte(nil)):
				v.SetBytes([]byte("x"))
			case v.Type() == reflect.TypeOf([]string(nil)):
				v.Set(reflect.ValueOf([]string{"x"}))
			default:
				t.Fatalf("RunOptions.%s: no test value for type %s", f.Name, f.Type)
			}
		}
	}
	for name, f := range vary {
		j := base
		f(&j)
		if coalesceKey(j) == coalesceKey(base) {
			t.Errorf("varying %s did not change the coalesce key", name)
		}
	}
	// Argument boundaries are identity too: {"a b"} is not {"a", "b"}.
	one, two := base, base
	one.RunOptions.Args = []string{"a b"}
	two.RunOptions.Args = []string{"a", "b"}
	if coalesceKey(one) == coalesceKey(two) {
		t.Error("args differing only in word boundaries share a coalesce key")
	}
	// ClientID and TraceID are envelope, not payload: they must coalesce.
	j := base
	j.ClientID = "tenant-a"
	j.TraceID = "00000000deadbeef"
	if coalesceKey(j) != coalesceKey(base) {
		t.Error("client/trace identity split the coalesce key")
	}
}

// TestBurstArrivalAccounting drives the burst arrival pattern end to end
// on a tiny pool with the workers stalled, so the outcome is exact: the
// pool holds Workers + QueueDepth jobs and every other arrival sheds.
func TestBurstArrivalAccounting(t *testing.T) {
	const n = 24
	gate := NewStallGate()
	r := NewRunner(RunnerOptions{Workers: 2, QueueDepth: 4, Faults: &Faults{ExecGate: gate.Gate}})
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Name: "burst.c", ClientID: fmt.Sprintf("c%d", i%3),
			Source: uniqueSource("burst", i)}
	}
	// Workers stall at the gate, so the queue cannot drain during the
	// burst: exactly Workers jobs execute, exactly QueueDepth queue, and
	// every other arrival sheds. Only once all n arrivals are accounted
	// for does the drain start.
	resCh := make(chan []*JobResult, 1)
	go func() { resCh <- BurstDo(context.Background(), r, jobs) }()
	waitCond(t, 5*time.Second, func() bool {
		m := r.Metrics()
		return m.Shed+m.Admitted+uint64(m.QueueDepthNow) == n
	}, "all arrivals to be decided")
	stop := drainGate(gate)
	defer stop()
	results := <-resCh

	admitted, shedCount := 0, 0
	for i, res := range results {
		var shed *ShedError
		switch {
		case res.Err == nil:
			admitted++
		case errors.As(res.Err, &shed):
			shedCount++
		default:
			t.Errorf("job %d unexpected error: %v", i, res.Err)
		}
	}
	// The pool holds exactly 2 executing + 4 queued while the gate is
	// shut; the other 18 must shed.
	if admitted != 6 || shedCount != n-6 {
		t.Fatalf("admitted %d shed %d, want exactly 6/%d", admitted, shedCount, n-6)
	}
	waitCond(t, 5*time.Second, func() bool {
		m := r.Metrics()
		return m.QueueDepthNow == 0 && m.JobsInFlight == 0
	}, "gauges to settle")
	m := r.Metrics()
	if m.Admitted != uint64(admitted) || m.Shed != uint64(shedCount) {
		t.Fatalf("metrics admitted/shed = %d/%d, client saw %d/%d",
			m.Admitted, m.Shed, admitted, shedCount)
	}
	if m.QueueWait.Count != uint64(admitted) {
		t.Fatalf("QueueWait count %d != admitted %d", m.QueueWait.Count, admitted)
	}
}
