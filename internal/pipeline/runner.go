package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gocured"
	"gocured/internal/store"
	"gocured/internal/trace"
)

// RunnerOptions tune a Runner.
type RunnerOptions struct {
	// Workers bounds concurrent jobs (0 = runtime.NumCPU()).
	Workers int
	// CacheEntries bounds the compile cache (0 = DefaultCacheEntries,
	// negative = caching disabled).
	CacheEntries int
	// DefaultStepLimit is applied to run jobs that do not set their own
	// RunOptions.StepLimit (0 keeps the interpreter's default of 1e9).
	// ccserve lowers it so one request cannot monopolize a worker.
	DefaultStepLimit uint64
	// JobTimeout is the default wall-clock bound per job (0 = none),
	// counted from Do entry, queue wait included. A timed-out job still
	// queued leaves the queue; a running one's result is abandoned, and
	// its worker slot is freed only when the underlying compile/run
	// actually stops (the step limit is the hard backstop), so
	// pathological jobs exert backpressure instead of accumulating
	// unbounded goroutines.
	JobTimeout time.Duration
	// Store, when non-nil, is the persistent artifact store used as the
	// cache's second tier: compiles replay per-function inference summaries
	// from it, so a restarted process serves warm compiles from disk.
	Store *store.Artifacts
	// TraceBufferEntries bounds the request-trace buffer behind Traces()
	// and GET /traces/{id} (0 = trace.DefaultBufferEntries; negative
	// disables request-trace retention — jobs still get trace IDs and span
	// timelines, they just are not kept for later query). The buffer is
	// also the pipeline's Perfetto source: ccbench -trace-dir renders each
	// retained trace as its own track.
	TraceBufferEntries int
	// QueueDepth bounds the admission queue: at most this many jobs wait
	// for worker slots at once, and further arrivals are shed with a
	// ShedError carrying a Retry-After estimate. 0 leaves the queue
	// unbounded — right for batch drivers (ccbench submits a whole corpus
	// at once); ccserve always sets a bound.
	QueueDepth int
	// CoalesceJobs enables runner-level coalescing: identical in-flight
	// jobs (same cache key AND same run options — see coalesceKey) share
	// one admission slot and one execution, and every caller receives the
	// same payload. Off by default because batch drivers want every
	// submitted job measured individually; ccserve turns it on.
	CoalesceJobs bool
	// Faults injects deterministic failures for tests; nil in production.
	Faults *Faults
}

// Job is one unit of pipeline work: cure a source file and, optionally,
// execute it in one Mode.
type Job struct {
	// Name labels the job and names the translation unit in diagnostics
	// (a ".c" suffix is conventional but not required).
	Name    string
	Source  string
	Options gocured.Options

	// TraceID is the request-scoped trace ID, a 32-hex W3C trace-id,
	// propagated through the job's spans, error text, and the trace buffer.
	// Empty means the Runner mints a fresh one (ccserve sets it from an
	// inbound traceparent header).
	TraceID string

	// ClientID keys per-client fair queueing: under contention, admission
	// shares worker slots equally across distinct ClientIDs, so one
	// flooding tenant cannot starve the rest. Empty means the anonymous
	// client (all unattributed jobs share one fair-queue lane). ccserve
	// sets it from the client-ID header or the remote address.
	ClientID string

	// Run requests execution after curing; Mode and RunOptions configure it.
	Run        bool
	Mode       gocured.Mode
	RunOptions gocured.RunOptions

	// Timeout overrides the Runner's JobTimeout when positive.
	Timeout time.Duration

	// key memoizes CacheKey(Name, Source, Options) once keyed is set: Do
	// hashes the source once, and both coalesceKey and the cache lookup
	// read the result.
	key   Key
	keyed bool
}

// cacheKey returns the job's CacheKey, hashing the source on first use.
func (j *Job) cacheKey() Key {
	if !j.keyed {
		j.key, j.keyed = CacheKey(j.Name, j.Source, j.Options), true
	}
	return j.key
}

// JobResult is the outcome of one Job.
type JobResult struct {
	Name string
	Key  Key

	// TraceID identifies this request's trace: pass it to Runner.Traces()
	// (or GET /traces/{id}) for the full span timeline.
	TraceID string

	// Program, Stats and Diagnostics are set when compilation succeeded.
	Program     *gocured.Program
	Stats       gocured.Stats
	Diagnostics []string
	// CacheHit reports that compilation was served without compiling
	// (memory or in-flight coalescing); Tier names the exact cache tier
	// that served it: "memory", "inflight", "disk" (compiled with stored
	// summaries replayed), "compile" (from scratch), or "coalesced" (the
	// job shared an identical in-flight job's execution).
	CacheHit bool
	Tier     string
	// Incr reports the inference composition of the compile: functions
	// replayed from the artifact store vs. re-collected. On a CacheHit it
	// describes the original compilation.
	Incr gocured.IncrStats

	// Run is the execution result for run jobs.
	Run *gocured.Result

	// Phases is the job's only timing record: its span timeline in
	// pre-order with Depth nesting. The root "request" span (depth 0) is
	// the end-to-end latency (queue wait + compile/cache + run) on every
	// exit path, panics included. Its depth-1 children are "queue-wait",
	// "compile" and "run", each present once that step has finished. Under
	// "compile" (depth 2) sit the cache-tier lookup ("cache-<tier>"), the
	// compile phases (parse/sema/lower/infer/instrument/..., on non-hits),
	// and aggregated store-read/store-write spans. Offsets are milliseconds
	// from the moment Do admitted the job. The Runner's metrics read their
	// e2e, compile and run wall times from these spans. A coalesced
	// follower carries its leader's Phases.
	Phases []trace.Span

	// Err is non-nil on compile errors, run errors, panics (isolated per
	// job) and timeouts. A trapped execution is not an error: see
	// Run.Trapped.
	Err error
}

// Runner cures and executes Jobs on a bounded worker pool over a shared
// content-addressed cache, behind an admission scheduler (bounded queue,
// per-client fair queueing). One Runner is
// intended to live for the whole process (ccserve) or batch (ccbench); it
// is safe for concurrent use.
type Runner struct {
	opts   RunnerOptions
	adm    *admitter
	cache  *Cache
	m      *metrics
	traces *trace.Buffer

	// flights holds the job calls shareable under a coalesceKey (only
	// registered when CoalesceJobs is on).
	flightMu sync.Mutex
	flights  map[string]*call[*JobResult]
}

// NewRunner builds a Runner.
func NewRunner(opts RunnerOptions) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	r := &Runner{
		opts:    opts,
		m:       newMetrics(),
		flights: make(map[string]*call[*JobResult]),
	}
	r.adm = newAdmitter(opts.Workers, opts.QueueDepth, r.m)
	if opts.CacheEntries >= 0 {
		r.cache = NewCache(opts.CacheEntries)
		r.cache.SetStore(opts.Store)
		if opts.Faults != nil && opts.Faults.WrapSummaries != nil {
			r.cache.wrapSums = opts.Faults.WrapSummaries
		}
	}
	if opts.TraceBufferEntries >= 0 {
		r.traces = trace.NewBuffer(opts.TraceBufferEntries)
	}
	return r
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return r.opts.Workers }

// Traces returns the Runner's bounded request-trace buffer (nil when
// disabled via RunnerOptions.TraceBufferEntries < 0).
func (r *Runner) Traces() *trace.Buffer { return r.traces }

// CountTraceparentMalformed records an inbound W3C traceparent header that
// failed validation and was discarded. The HTTP layer calls this (the spec
// says restart the trace, not reject the request) so operators can spot a
// misbehaving upstream in the traceparent_malformed counter.
func (r *Runner) CountTraceparentMalformed() {
	r.m.update(func(acc *Metrics) { acc.TraceparentMalformed++ })
}

// Metrics snapshots the Runner's counters.
func (r *Runner) Metrics() Metrics {
	var cs CacheStats
	if r.cache != nil {
		cs = r.cache.Stats()
	}
	m := r.m.snapshot(r.opts.Workers, cs)
	m.QueueLimit = r.opts.QueueDepth
	if d := r.adm.ClientDepths(); len(d) > 0 {
		m.ClientQueueDepths = d
	}
	if r.opts.Store != nil {
		st := r.opts.Store.Store().Stats()
		m.Store = &st
	}
	if r.traces != nil {
		ts := r.traces.Stats()
		m.Traces = &ts
	}
	m.Build = BuildInfo{
		Version:   gocured.Version,
		GoVersion: runtime.Version(),
		Optimizer: "on", // optimizer is per-job (Options.NoOptimize); the build default is on
	}
	return m
}

// Do executes one job: admission (bounded queue, fair queueing), then
// execution on a worker slot, blocking until the job
// completes, is shed, times out, or ctx is cancelled. It always returns a
// non-nil result; inspect Err. A shed job's Err unwraps to *ShedError.
// With CoalesceJobs on, identical in-flight jobs share one execution.
//
// Every job is a call run by one leader goroutine; the caller only waits
// for it in waitFlight. Without CoalesceJobs the call is simply never
// registered under a shareable key, so there is one job path either way.
func (r *Runner) Do(ctx context.Context, job Job) *JobResult {
	if job.TraceID == "" {
		job.TraceID = trace.NewW3CTraceID()
	}
	job.cacheKey()
	var key string
	if r.opts.CoalesceJobs {
		key = coalesceKey(job)
	}
	r.flightMu.Lock()
	if f, ok := r.flights[key]; ok && f.join() {
		r.flightMu.Unlock()
		r.m.update(func(acc *Metrics) { acc.Coalesced++ })
		return r.waitFlight(ctx, job, f, false)
	}
	// Arrival-time admission belongs to the leader caller: it runs on this
	// goroutine. Deciding it before registering the call means nobody ever
	// coalesces onto a shed job.
	enq := time.Now()
	w, err := r.adm.arrive(job.ClientID, job.TraceID)
	if err != nil {
		r.flightMu.Unlock()
		return &JobResult{Name: job.Name, TraceID: job.TraceID,
			Err: fmt.Errorf("job %q (trace %s): %w", job.Name, job.TraceID, err)}
	}
	f := newCall[*JobResult](func() { r.adm.withdraw(w) })
	if key != "" {
		r.flights[key] = f
	}
	r.flightMu.Unlock()
	go func() {
		res := r.run(job, enq, w)
		if key != "" {
			r.flightMu.Lock()
			if r.flights[key] == f {
				delete(r.flights, key)
			}
			r.flightMu.Unlock()
		}
		f.finish(res, nil)
	}()
	return r.waitFlight(ctx, job, f, true)
}

// coalesceKey is the identity under which in-flight jobs coalesce: the
// compile cache key (name, source, inference options) plus everything that
// changes what an execution produces — the run mode and every RunOptions
// field. Two jobs may share an execution only if a cache hit could have
// served them the same payload; collapsing the key to the cache key alone
// would hand a seed-99 caller the stdout of a seed-0 run. %#v renders
// every field, so a new RunOptions field joins the key without an edit.
func coalesceKey(job Job) string {
	k := job.cacheKey()
	if !job.Run {
		return fmt.Sprintf("%x|compile", k[:])
	}
	return fmt.Sprintf("%x|run|%s|%#v", k[:], job.Mode, job.RunOptions)
}

// waitFlight waits for a job's call on behalf of one participant. It is
// the only place a caller's cancellation and timeout are handled: the
// timeout (Job.Timeout, else JobTimeout) counts from Do entry, queue wait
// included, and a participant that gives up leaves the call.
func (r *Runner) waitFlight(ctx context.Context, job Job, f *call[*JobResult], leader bool) *JobResult {
	enq := time.Now()
	timeout := job.Timeout
	if timeout <= 0 {
		timeout = r.opts.JobTimeout
	}
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case <-f.done:
		if leader {
			return f.res
		}
		// Followers share the payload (Program, Stats, Run, Phases — all
		// immutable after completion) under their own envelope: the tier
		// says the request was coalesced.
		// The TraceID stays the follower's own: trace-context propagation
		// promises the caller its trace-id back on every response, and a
		// caller that minted a traceparent must see that id echoed even
		// when its request piggybacked on another execution. The follower's
		// trace is a one-span stub naming the leader's trace, so the
		// coalesced execution stays reachable from either id.
		cp := *f.res
		cp.Tier = "coalesced"
		cp.CacheHit = cp.Err == nil
		if job.TraceID != f.res.TraceID {
			cp.TraceID = job.TraceID
			if r.traces != nil {
				durMS := ms(time.Since(enq))
				rt := trace.ReqTrace{ID: job.TraceID, Name: job.Name, Start: enq, DurMS: durMS,
					Spans: []trace.Span{{Name: "coalesced onto trace " + f.res.TraceID, DurMS: durMS}}}
				if cp.Err != nil {
					rt.Err = cp.Err.Error()
				}
				r.traces.Add(rt)
			}
		}
		return &cp
	case <-ctx.Done():
		f.leave()
		return &JobResult{Name: job.Name, TraceID: job.TraceID, Err: ctx.Err()}
	case <-timeoutCh:
		r.m.update(func(acc *Metrics) { acc.JobsTimedOut++ })
		f.leave()
		return &JobResult{Name: job.Name, TraceID: job.TraceID,
			Err: fmt.Errorf("job %q (trace %s) timed out after %v", job.Name, job.TraceID, timeout)}
	}
}

// run waits out a call's place in the queue and executes its job. The
// slot is returned when execution actually stops, even if every caller
// abandoned the job on timeout long ago, so pathological jobs exert
// backpressure instead of over-admitting.
func (r *Runner) run(job Job, enq time.Time, w *waiter) *JobResult {
	wait, ok := r.adm.wait(w)
	if !ok {
		return &JobResult{Name: job.Name, TraceID: job.TraceID,
			Err: fmt.Errorf("job %q (trace %s) withdrawn from the queue", job.Name, job.TraceID)}
	}
	r.m.update(func(acc *Metrics) { acc.JobsInFlight++ })
	svcStart := time.Now()
	res := r.execute(job, enq, wait)
	r.m.jobFinished(res)
	r.adm.release(time.Since(svcStart))
	return res
}

// RetryAfter is the Runner's current backoff estimate for rejected work:
// the time the pool needs to drain the present queue at the observed p50
// service rate. ccserve uses it for Retry-After headers.
func (r *Runner) RetryAfter() time.Duration { return r.adm.RetryAfter() }

// DoAll fans jobs out over the worker pool and returns their results in
// input order once all have completed (or ctx is cancelled, in which case
// the remaining results carry ctx's error).
func (r *Runner) DoAll(ctx context.Context, jobs []Job) []*JobResult {
	results := make([]*JobResult, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Do(ctx, jobs[i])
		}(i)
	}
	wg.Wait()
	return results
}

// Compile cures a source through the worker pool and cache without
// executing it.
func (r *Runner) Compile(ctx context.Context, name, source string, opts gocured.Options) *JobResult {
	return r.Do(ctx, Job{Name: name, Source: source, Options: opts})
}

// ms converts a duration to the float milliseconds every span carries.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// execute runs one job on the calling goroutine. Panics anywhere in the
// compile/run path are isolated into Err so one pathological source cannot
// take down a batch. enq/wait carry the queue timing measured by Do.
//
// Each span is appended to res.Phases as its step finishes; the root
// "request" span is patched with the end-to-end time at exit, so every
// path — success, compile error, panic — leaves a complete timeline and
// a queryable trace.
func (r *Runner) execute(job Job, enq time.Time, wait time.Duration) (res *JobResult) {
	res = &JobResult{Name: job.Name, TraceID: job.TraceID, Phases: []trace.Span{
		{Name: "request"},
		{Name: "queue-wait", DurMS: ms(wait), Depth: 1},
	}}
	// Registered first so it runs last, after the recover below has
	// isolated any panic into res.Err.
	defer func() {
		res.Phases[0].DurMS = ms(time.Since(enq))
		if r.traces != nil {
			rt := trace.ReqTrace{ID: res.TraceID, Name: job.Name, Start: enq,
				DurMS: res.Phases[0].DurMS, Spans: res.Phases}
			if res.Err != nil {
				rt.Err = res.Err.Error()
			}
			r.traces.Add(rt)
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			r.m.update(func(acc *Metrics) { acc.JobsPanicked++ })
			res.Err = fmt.Errorf("job %q (trace %s) panicked: %v\n%s", job.Name, job.TraceID, p, debug.Stack())
		}
	}()
	// Fault injection (tests only; both calls are nil checks in production).
	r.opts.Faults.beforeExec(job)
	defer r.opts.Faults.afterExec(job)

	start := time.Now()

	compiled, lk, err := r.compile(job)
	fresh := compiled
	if err != nil || lk.Hit {
		fresh = nil
	}
	res.Phases = appendCompileSpans(res.Phases, ms(start.Sub(enq)), ms(time.Since(start)), lk.Tier, fresh)
	if err != nil {
		res.Err = fmt.Errorf("compile %s (trace %s): %w", job.Name, job.TraceID, err)
		return res
	}
	res.Key = compiled.Key
	res.Program = compiled.Program
	res.Stats = compiled.Stats
	res.Diagnostics = compiled.Diagnostics
	res.Incr = compiled.Incr
	res.CacheHit = lk.Hit
	res.Tier = lk.Tier

	if !job.Run {
		return res
	}
	ro := job.RunOptions
	if ro.StepLimit == 0 && r.opts.DefaultStepLimit > 0 {
		ro.StepLimit = r.opts.DefaultStepLimit
	}
	runStart := time.Now()
	out, err := compiled.Program.Run(job.Mode, ro)
	res.Phases = append(res.Phases, trace.Span{Name: "run", StartMS: ms(runStart.Sub(enq)),
		DurMS: ms(time.Since(runStart)), Depth: 1})
	if err != nil {
		res.Err = fmt.Errorf("run %s (%s, trace %s): %w", job.Name, job.Mode, job.TraceID, err)
		return res
	}
	res.Run = out
	return res
}

// appendCompileSpans appends the "compile" span starting cs ms into the
// request and lasting cd ms, then its children: the cache-tier lookup and,
// when fresh is the artifact this job compiled itself, the compile's own
// phase spans and its aggregated artifact-store I/O.
func appendCompileSpans(out []trace.Span, cs, cd float64, tier string, fresh *Compiled) []trace.Span {
	out = append(out, trace.Span{Name: "compile", StartMS: cs, DurMS: cd, Depth: 1})
	// The cache-tier span covers the lookup: on a hit (or a failed compile)
	// that is the whole compile window; on a fresh compile it is the
	// (tiny) address computation before compiling.
	if fresh == nil {
		return append(out, trace.Span{Name: "cache-" + tier, StartMS: cs, DurMS: cd, Depth: 2})
	}
	out = append(out, trace.Span{Name: "cache-" + tier, StartMS: cs, Depth: 2})
	for _, sp := range fresh.Program.Spans() {
		sp.StartMS += cs
		sp.Depth += 2
		out = append(out, sp)
	}
	// Store I/O is interleaved with inference; surface it as aggregate
	// spans at the end of the compile window. The aggregates sum wall time
	// across concurrent inference goroutines, so they can exceed the
	// compile duration — clamp each span into the compile window so the
	// raw Phases list in the /cure response is well-formed (never a
	// negative start or an overlap into queue-wait), not just the
	// sanitized GET /traces/{id} export.
	clamp := func(start, dur float64) (float64, float64) {
		if start < cs {
			start = cs
		}
		if end := cs + cd; start+dur > end {
			dur = end - start
		}
		if dur < 0 {
			dur = 0
		}
		return start, dur
	}
	if fresh.StoreReads > 0 {
		start, dur := clamp(cs+cd-fresh.StoreReadMS-fresh.StoreWriteMS, fresh.StoreReadMS)
		out = append(out, trace.Span{Name: "store-read", StartMS: start, DurMS: dur, Depth: 2})
	}
	if fresh.StoreWrites > 0 {
		start, dur := clamp(cs+cd-fresh.StoreWriteMS, fresh.StoreWriteMS)
		out = append(out, trace.Span{Name: "store-write", StartMS: start, DurMS: dur, Depth: 2})
	}
	return out
}

func (r *Runner) compile(job Job) (*Compiled, Lookup, error) {
	if r.cache != nil {
		return r.cache.getOrCompileKey(job.cacheKey(), job.Name, job.Source, job.Options)
	}
	compiled, err := compileSource(job.cacheKey(), job.Name, job.Source, job.Options, r.opts.Store, nil)
	return compiled, lookupFor(compiled), err
}
