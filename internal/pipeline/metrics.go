package pipeline

import (
	"maps"
	"sort"
	"sync"
	"time"

	"gocured/internal/store"
	"gocured/internal/trace"
)

// BuildInfo identifies the running build: the gocured analysis revision,
// the Go toolchain, and whether the check optimizer is on by default. It
// feeds the gocured_build_info Prometheus gauge, the standard pattern for
// joining metrics against deployment metadata.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Optimizer string `json:"optimizer"` // "on" or "off"
}

// PhaseHist is one named phase-duration histogram in a snapshot.
type PhaseHist struct {
	Phase string    `json:"phase"`
	Hist  Histogram `json:"hist"`
}

// Metrics is a point-in-time snapshot of a Runner's counters. It marshals
// directly to JSON (ccserve's GET /metrics).
type Metrics struct {
	Build BuildInfo `json:"build"`

	// SnapshotUnixMS is the wall-clock time this snapshot was taken and
	// UptimeMS the process runner's age at that moment, so an external
	// scraper can compute rates from two snapshots without guessing at
	// scrape timing.
	SnapshotUnixMS int64 `json:"snapshot_unix_ms"`
	UptimeMS       int64 `json:"uptime_ms"`

	Workers      int   `json:"workers"`
	JobsInFlight int64 `json:"jobs_in_flight"`
	// QueueDepthNow is the number of jobs currently waiting for a worker
	// slot (queued by admission but not yet executing); QueueLimit is the
	// configured admission-queue bound (0 = unbounded, the batch default).
	QueueDepthNow int64 `json:"queue_depth_now"`
	QueueLimit    int   `json:"queue_limit"`

	JobsRun      uint64 `json:"jobs_run"`
	JobsFailed   uint64 `json:"jobs_failed"`
	JobsPanicked uint64 `json:"jobs_panicked"`
	JobsTimedOut uint64 `json:"jobs_timed_out"`

	// Admission-control decisions: Admitted counts jobs granted a worker
	// slot; Shed counts jobs rejected without queueing because the queue
	// was full; Coalesced counts jobs served by joining
	// another identical in-flight job instead of queueing at all. The
	// per-client depths snapshot the fair queue (only clients with waiting
	// jobs appear).
	Admitted          uint64         `json:"admitted"`
	Shed              uint64         `json:"shed"`
	Coalesced         uint64         `json:"coalesced"`
	ClientQueueDepths map[string]int `json:"client_queue_depths,omitempty"`
	// ShedExemplar links the shed counter to the trace of the most
	// recently rejected request (OpenMetrics counter exemplar).
	ShedExemplar *Exemplar `json:"shed_exemplar,omitempty"`

	// TraceparentMalformed counts inbound W3C traceparent headers that
	// failed validation and were discarded (the request still ran, under a
	// freshly minted trace, per the trace-context spec).
	TraceparentMalformed uint64 `json:"traceparent_malformed"`

	RunsExecuted uint64            `json:"runs_executed"`
	Traps        uint64            `json:"traps"`
	TrapsByKind  map[string]uint64 `json:"traps_by_kind,omitempty"`

	Cache CacheStats `json:"cache"`

	// Store snapshots the persistent artifact store (nil when the Runner
	// has none); FuncsRecured/FuncsLoaded count per-function inference work
	// across non-cache-hit compiles — loaded functions were replayed from
	// stored summaries instead of re-collected.
	Store        *store.Stats `json:"store,omitempty"`
	FuncsRecured uint64       `json:"funcs_recured"`
	FuncsLoaded  uint64       `json:"funcs_loaded"`

	// Traces snapshots the request-trace buffer behind GET /traces/{id}
	// (nil when tracing is disabled).
	Traces *trace.BufferStats `json:"traces,omitempty"`

	// Latency distributions, all log-bucketed with per-bucket exemplars
	// linking to request traces. E2EWall is the full request latency as a
	// job experienced it (queue wait + compile/cache + run); QueueWait the
	// time spent waiting for a worker slot; QueueDepth the waiting-job
	// count observed at each enqueue (dimensionless, same bucket scale).
	E2EWall     Histogram `json:"e2e_wall"`
	QueueWait   Histogram `json:"queue_wait"`
	QueueDepth  Histogram `json:"queue_depth"`
	CompileWall Histogram `json:"compile_wall"`
	RunWall     Histogram `json:"run_wall"`
	// Phases are per-compile-phase duration histograms (parse, sema,
	// lower, infer, instrument, optimize, frontend-raw, store-read,
	// store-write), sorted by phase name.
	Phases []PhaseHist `json:"phases,omitempty"`
}

// metrics is the Runner's internal accumulator. One mutex guards the
// counters and gauges, which accumulate straight into the snapshot type;
// the histograms carry their own locks (they are also observed from queue
// admission, outside jobFinished). Updates are a few counter bumps per
// job, far off the interpreter's hot path, so contention is negligible
// next to compile/run work.
type metrics struct {
	start time.Time // process-lifetime anchor for uptime_ms

	mu sync.Mutex
	// acc holds the counters and gauges; its labelled maps stay nil until
	// first use, so an untouched family is omitted from JSON.
	acc Metrics

	e2eWall     LogHist
	queueWait   LogHist
	queueDepthH LogHist
	compileWall LogHist
	runWall     LogHist

	phaseMu sync.Mutex
	phases  map[string]*LogHist
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), phases: make(map[string]*LogHist)}
}

// update applies one change to the counters and gauges under the lock.
func (m *metrics) update(change func(acc *Metrics)) {
	m.mu.Lock()
	change(&m.acc)
	m.mu.Unlock()
}

// queueAdmitted records a successful admission: the wait and the queue
// depth the job observed at enqueue. waited reverses the queue-depth bump
// of jobs that actually sat in the queue (the free-slot fast path never
// entered). Wait and depth are observed only here, so shed and withdrawn
// jobs never skew the histograms.
func (m *metrics) queueAdmitted(depth int64, wait time.Duration, traceID string, waited bool) {
	m.mu.Lock()
	if waited {
		m.acc.QueueDepthNow--
	}
	m.acc.Admitted++
	m.mu.Unlock()
	m.queueWait.Observe(wait, traceID)
	m.queueDepthH.ObserveMS(float64(depth), traceID)
}

// jobShed counts an admission rejection and retains the trace ID as the
// shed counter's exemplar.
func (m *metrics) jobShed(traceID string) {
	m.mu.Lock()
	m.acc.Shed++
	if traceID != "" {
		m.acc.ShedExemplar = &Exemplar{TraceID: traceID, ValueMS: 1}
	}
	m.mu.Unlock()
}

// phaseHist returns the accumulator for one named phase.
func (m *metrics) phaseHist(name string) *LogHist {
	m.phaseMu.Lock()
	h := m.phases[name]
	if h == nil {
		h = &LogHist{}
		m.phases[name] = h
	}
	m.phaseMu.Unlock()
	return h
}

// jobFinished counts one executed job and observes its timing, all of it
// read from the job's spans: the request span is the e2e latency of every
// job, and a successful job's compile span (when it compiled rather than
// hit the cache), its compile phases and its run span feed the compile,
// phase and run histograms.
func (m *metrics) jobFinished(res *JobResult) {
	m.mu.Lock()
	m.acc.JobsInFlight--
	m.acc.JobsRun++
	if res.Err != nil {
		m.acc.JobsFailed++
	} else {
		if !res.CacheHit {
			m.acc.FuncsRecured += uint64(res.Incr.Recured)
			m.acc.FuncsLoaded += uint64(res.Incr.Loaded)
		}
		if res.Run != nil {
			m.acc.RunsExecuted++
			if res.Run.Trapped {
				m.acc.Traps++
				if m.acc.TrapsByKind == nil {
					m.acc.TrapsByKind = make(map[string]uint64)
				}
				m.acc.TrapsByKind[res.Run.TrapKind]++
			}
		}
	}
	m.mu.Unlock()

	for _, sp := range res.Phases {
		switch {
		case sp.Depth == 0 && sp.Name == "request":
			m.e2eWall.ObserveMS(sp.DurMS, res.TraceID)
		case res.Err != nil:
			// A failed job contributes its e2e latency only.
		case sp.Depth == 1 && sp.Name == "run":
			m.runWall.ObserveMS(sp.DurMS, res.TraceID)
		case res.CacheHit:
			// A cache hit's compile window is a lookup, not a compile.
		case sp.Depth == 1 && sp.Name == "compile":
			m.compileWall.ObserveMS(sp.DurMS, res.TraceID)
		case sp.Depth == 2 && phaseNames[sp.Name]:
			m.phaseHist(sp.Name).ObserveMS(sp.DurMS, res.TraceID)
		}
	}
}

// phaseNames are the span names observed into per-phase histograms: the
// compile phases (children of the request timeline's "compile" span) plus
// the aggregated artifact-store I/O spans.
var phaseNames = map[string]bool{
	"parse": true, "sema": true, "lower": true, "infer": true,
	"instrument": true, "optimize": true, "frontend-raw": true,
	"store-read": true, "store-write": true,
}

// snapshot copies the counters and gauges (the labelled maps cloned so the
// caller owns them) and snapshots every histogram.
func (m *metrics) snapshot(workers int, cache CacheStats) Metrics {
	now := time.Now()
	m.mu.Lock()
	out := m.acc
	out.TrapsByKind = maps.Clone(out.TrapsByKind)
	m.mu.Unlock()
	out.SnapshotUnixMS = now.UnixMilli()
	out.UptimeMS = now.Sub(m.start).Milliseconds()
	out.Workers = workers
	out.Cache = cache

	out.E2EWall = m.e2eWall.Snapshot()
	out.QueueWait = m.queueWait.Snapshot()
	out.QueueDepth = m.queueDepthH.Snapshot()
	out.CompileWall = m.compileWall.Snapshot()
	out.RunWall = m.runWall.Snapshot()

	m.phaseMu.Lock()
	names := make([]string, 0, len(m.phases))
	for name := range m.phases {
		names = append(names, name)
	}
	hists := make([]*LogHist, len(names))
	sort.Strings(names)
	for i, name := range names {
		hists[i] = m.phases[name]
	}
	m.phaseMu.Unlock()
	for i, name := range names {
		out.Phases = append(out.Phases, PhaseHist{Phase: name, Hist: hists[i].Snapshot()})
	}
	return out
}
