// Command ccserve exposes the curing pipeline as an HTTP service: clients
// POST C sources and get back pointer-kind statistics, diagnostics, and
// (optionally) the result of executing the cured program in a chosen mode.
//
//	ccserve [-addr :8080] [-j N] [-cache N] [-step-limit N] [-timeout D]
//	        [-max-request-bytes N] [-pprof] [-store-dir DIR]
//	        [-trace-buffer N] [-queue-depth N] [-client-header NAME]
//
// Endpoints:
//
//	POST /cure                cure (and optionally run) a source; see CureRequest
//	GET  /metrics             pipeline metrics snapshot as JSON
//	GET  /metrics/prometheus  the same counters in Prometheus text format
//	                          (OpenMetrics with exemplars when the Accept
//	                          header asks for application/openmetrics-text)
//	GET  /traces              recent request traces (summaries, newest first)
//	GET  /traces/{id}         one trace (every retained request of it) as Chrome trace-event JSON
//	GET  /healthz             liveness (process is up)
//	GET  /readyz              readiness (corpus loaded, store opened, pool started)
//	GET  /corpus              list the built-in corpus programs
//	GET  /corpus/{name}       fetch one corpus program (source and metadata)
//	GET  /debug/vars          expvar: the Go runtime's memstats and cmdline
//	GET  /debug/pprof/        Go profiling (only with -pprof)
//
// Every request is logged as exactly one structured (slog JSON) line with
// a request ID, method, path, status, and duration, at WARN when the status
// is 400 or above; /cure lines additionally carry the trace ID, name, mode,
// cache tier, and a trap summary, or the shed reason or error. A request's
// trace ID is a 32-hex W3C trace-id: adopted from an inbound traceparent
// header (the only inbound channel) or minted by the server, and echoed in
// the reply's trace_id field and Traceparent header on every outcome. The
// startup, artifact-store and shutdown lines are slog JSON records too, so
// every line on stderr parses as JSON.
//
// The pipeline runs behind admission control: at most -queue-depth jobs
// wait for worker slots, fair-queued per client (the -client-header value,
// default X-Client-Id, falling back to the remote address). Excess load is
// rejected with 429 and a Retry-After header computed from the queue depth
// and the observed service rate; identical concurrent requests always
// coalesce onto one execution.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// are drained before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/flight"
	"gocured/internal/pipeline"
	"gocured/internal/trace"
)

// CureRequest is the POST /cure body.
type CureRequest struct {
	// Name labels the translation unit in diagnostics (default "input.c").
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`

	Options struct {
		NoRTTI              bool `json:"no_rtti,omitempty"`
		NoPhysicalSubtyping bool `json:"no_physical_subtyping,omitempty"`
		TrustBadCasts       bool `json:"trust_bad_casts,omitempty"`
		ForceSplitAll       bool `json:"force_split_all,omitempty"`
		NoOptimize          bool `json:"no_optimize,omitempty"`
	} `json:"options,omitempty"`

	// Run requests execution after curing; Mode defaults to "cured".
	Run       bool     `json:"run,omitempty"`
	Mode      string   `json:"mode,omitempty"`
	Stdin     string   `json:"stdin,omitempty"`
	Args      []string `json:"args,omitempty"`
	StepLimit uint64   `json:"step_limit,omitempty"`
	// Trace enables the flight recorder for the run: the response carries
	// the Chrome trace-event JSON and, on a trap, the black-box snapshot.
	Trace bool `json:"trace,omitempty"`
	// ProfilePeriod enables step-sampling profiling at the given period
	// (interpreter steps per sample; 0 = off).
	ProfilePeriod int `json:"profile_period,omitempty"`
}

// CureResponse is the POST /cure reply.
type CureResponse struct {
	Name string `json:"name"`
	Key  string `json:"key"`
	// TraceID identifies this request's trace; GET /traces/{id} returns the
	// full span timeline while it remains in the bounded trace buffer.
	TraceID  string `json:"trace_id"`
	CacheHit bool   `json:"cache_hit"`
	// Tier is the cache tier that served the compile: "memory", "inflight",
	// "disk", "compile", or "coalesced" (shared an identical in-flight
	// request's execution).
	Tier        string        `json:"tier,omitempty"`
	Stats       gocured.Stats `json:"stats"`
	Diagnostics []string      `json:"diagnostics,omitempty"`
	// Phases is the request's span timeline (pre-order, depth-annotated):
	// queue wait, cache tier, compile phases, store I/O, and run.
	Phases []trace.Span `json:"phases,omitempty"`
	Run    *RunResponse `json:"run,omitempty"`
}

// RunResponse is the execution part of a CureResponse.
type RunResponse struct {
	Mode        string `json:"mode"`
	ExitCode    int    `json:"exit_code"`
	Stdout      string `json:"stdout"`
	Trapped     bool   `json:"trapped"`
	TrapKind    string `json:"trap_kind,omitempty"`
	TrapMessage string `json:"trap_message,omitempty"`
	// TrapPos/TrapStack/TrapBlame attribute a trap: source location, cured
	// call stack (innermost first), and the inference blame chain of the
	// pointer whose check fired.
	TrapPos   string   `json:"trap_pos,omitempty"`
	TrapStack []string `json:"trap_stack,omitempty"`
	TrapBlame []string `json:"trap_blame,omitempty"`
	Steps     uint64   `json:"steps"`
	Checks    uint64   `json:"checks"`
	SimCycles uint64   `json:"sim_cycles"`
	// HotSites are the hottest run-time check sites of the run.
	HotSites    []gocured.CheckSiteCount `json:"hot_sites,omitempty"`
	ToolReports []string                 `json:"tool_reports,omitempty"`
	// Trace is the run's flight recording in Chrome trace-event format
	// (request option "trace"); load it in Perfetto or chrome://tracing.
	Trace json.RawMessage `json:"trace,omitempty"`
	// Profile is the step-sampling profile (request option
	// "profile_period"), hottest source line first.
	Profile []gocured.ProfileLine `json:"profile,omitempty"`
	// BlackBox is the crash snapshot: the events leading up to the trap,
	// the cured call stack, and the blame chain (only for traced runs that
	// trapped).
	BlackBox *flight.BlackBox `json:"black_box,omitempty"`
}

// serverConfig bundles the serving options newServer needs.
type serverConfig struct {
	MaxBytes int64
	Logger   *slog.Logger
	Pprof    bool
	// StoreConfigured tells /readyz a persistent artifact store was
	// requested (so its absence from metrics means a failed open).
	StoreConfigured bool
	// ClientHeader names the request header that carries the fair-queue
	// client ID (empty = DefaultClientHeader). Requests without it are
	// attributed to their remote address.
	ClientHeader string
}

// DefaultClientHeader is the request header consulted for the fair-queue
// client ID when serverConfig.ClientHeader is empty.
const DefaultClientHeader = "X-Client-Id"

// server bundles the Runner with the HTTP handlers so tests can drive the
// mux without a listener.
type server struct {
	runner   *pipeline.Runner
	maxBytes int64
	logger   *slog.Logger
	mux      *http.ServeMux
	reqSeq   atomic.Uint64
	// ready flips once markReady declares startup finished (runner built,
	// store opened, listener launched); it gates /readyz so load balancers
	// hold traffic during boot.
	ready atomic.Bool
	// storeConfigured records whether a persistent store was requested, so
	// /readyz can distinguish "no store" from "store failed to open".
	storeConfigured bool
	// clientHeader names the header carrying the fair-queue client ID.
	clientHeader string
}

func newServer(runner *pipeline.Runner, cfg serverConfig) *server {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// ready stays false until the caller (main, or a test) declares startup
	// finished via markReady; /readyz answers 503 until then.
	if cfg.ClientHeader == "" {
		cfg.ClientHeader = DefaultClientHeader
	}
	s := &server{runner: runner, maxBytes: cfg.MaxBytes, logger: cfg.Logger, mux: http.NewServeMux(),
		storeConfigured: cfg.StoreConfigured, clientHeader: cfg.ClientHeader}
	s.mux.HandleFunc("/cure", s.handleCure)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics/prometheus", s.handlePrometheus)
	s.mux.HandleFunc("/traces", s.handleTracesList)
	s.mux.HandleFunc("/traces/", s.handleTraceGet)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/corpus", s.handleCorpusList)
	s.mux.HandleFunc("/corpus/", s.handleCorpusGet)
	s.mux.Handle("/debug/vars", expvar.Handler())
	if cfg.Pprof {
		// Explicit routes rather than the net/http/pprof blank import: the
		// profiling surface exists only when asked for.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// markReady declares startup finished: /readyz's "started" check passes
// from here on. main calls it once the store, runner, and listener are all
// wired; tests call it to probe the ready state directly.
func (s *server) markReady() { s.ready.Store(true) }

// statusWriter captures the response status for the request log. Handlers
// that never call WriteHeader explicitly — net/http sends an implicit 200
// on the first Write — must still log 200, so Write latches the implicit
// status and Status() defaults to 200 for anything unset.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK // implicit 200 from first Write
	}
	return w.ResponseWriter.Write(p)
}

// Status returns the response status for logging (200 when the handler
// finished without ever writing anything).
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// ctxKey keys the request's log attribute list in the request context.
type ctxKey struct{}

// annotate adds key/value attributes to the request's one log line.
func annotate(r *http.Request, args ...any) {
	if attrs, ok := r.Context().Value(ctxKey{}).(*[]any); ok {
		*attrs = append(*attrs, args...)
	}
}

// ServeHTTP assigns every request an ID, threads an attribute list through
// the context for handlers to annotate, and logs the request as one
// structured line when the handler returns: INFO, or WARN when the status
// is 400 or above.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	attrs := []any{"req_id", s.reqSeq.Add(1), "method", r.Method, "path", r.URL.Path}
	s.mux.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), ctxKey{}, &attrs)))
	status := sw.Status()
	attrs = append(attrs, "status", status, "dur_ms", float64(time.Since(start))/float64(time.Millisecond))
	level := slog.LevelInfo
	if status >= 400 {
		level = slog.LevelWarn
	}
	s.logger.Log(r.Context(), level, "request", attrs...)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the structured error reply of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// errCode renders an HTTP status as a stable snake_case error code
// ("bad_request", "request_entity_too_large", ...).
func errCode(status int) string {
	return strings.ReplaceAll(strings.ToLower(http.StatusText(status)), " ", "_")
}

// writeError sends the structured error reply and puts its message on the
// request's log line.
func writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	annotate(r, "err", msg)
	writeJSON(w, status, errorBody{Error: msg, Code: errCode(status)})
}

// clientID attributes a request to a fair-queue client: the client-ID
// header when present, else the remote host (sans port), so unattributed
// traffic from one address shares one lane instead of minting a client per
// connection.
func (s *server) clientID(r *http.Request) string {
	if id := r.Header.Get(s.clientHeader); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a backoff hint as RFC 9110 Retry-After whole
// seconds, rounded up (minimum 1).
func retryAfterSeconds(d time.Duration) int64 {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

func (s *server) handleCure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// W3C trace-context is the only inbound trace-ID channel: a valid
	// traceparent's trace-id becomes the request's trace ID, echoed up front
	// so the header is on every outcome, including validation failures that
	// never reach the runner. Per the spec a malformed traceparent is NOT an
	// error — the trace restarts fresh (the runner mints an ID) and the
	// discard is counted for the traceparent_malformed metric.
	var traceID string
	if tp := r.Header.Get("traceparent"); tp != "" {
		if tid, ok := trace.ParseTraceparent(tp); ok {
			traceID = tid
			w.Header().Set("Traceparent", trace.Traceparent(tid))
			annotate(r, "trace_id", tid)
		} else {
			s.runner.CountTraceparentMalformed()
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBytes)
	var req CureRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, r, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if strings.TrimSpace(req.Source) == "" {
		writeError(w, r, http.StatusBadRequest, "missing source")
		return
	}
	name := req.Name
	if name == "" {
		name = "input.c"
	}
	mode := gocured.ModeCured
	if req.Mode != "" {
		var err error
		if mode, err = gocured.ParseMode(req.Mode); err != nil {
			writeError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
	}
	annotate(r, "name", name, "mode", mode.String())

	job := pipeline.Job{
		Name:     name,
		TraceID:  traceID,
		ClientID: s.clientID(r),
		Source:   req.Source,
		Options: gocured.Options{
			NoRTTI:              req.Options.NoRTTI,
			NoPhysicalSubtyping: req.Options.NoPhysicalSubtyping,
			TrustBadCasts:       req.Options.TrustBadCasts,
			ForceSplitAll:       req.Options.ForceSplitAll,
			NoOptimize:          req.Options.NoOptimize,
		},
		Run:  req.Run,
		Mode: mode,
		RunOptions: gocured.RunOptions{
			Stdin:         []byte(req.Stdin),
			Args:          req.Args,
			StepLimit:     req.StepLimit,
			Trace:         req.Trace,
			ProfilePeriod: req.ProfilePeriod,
		},
	}
	res := s.runner.Do(r.Context(), job)
	if traceID == "" {
		// The runner minted the trace ID: echo it like an adopted one, so
		// every outcome (success, shed, failure) names its trace.
		w.Header().Set("Traceparent", trace.Traceparent(res.TraceID))
		annotate(r, "trace_id", res.TraceID)
	}
	if res.Err != nil {
		var shed *pipeline.ShedError
		if errors.As(res.Err, &shed) {
			// Load shed: tell the client when to come back. Retry-After is
			// whole seconds (RFC 9110), rounded up so "50ms" doesn't become
			// an immediate hammering retry loop.
			w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(shed.RetryAfter), 10))
			annotate(r, "client", job.ClientID, "retry_after", shed.RetryAfter.String())
			writeError(w, r, http.StatusTooManyRequests, "%v", res.Err)
			return
		}
		status := http.StatusUnprocessableEntity
		if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, r, status, "%v", res.Err)
		return
	}
	resp := CureResponse{
		Name:        res.Name,
		Key:         res.Key.String(),
		TraceID:     res.TraceID,
		CacheHit:    res.CacheHit,
		Tier:        res.Tier,
		Stats:       res.Stats,
		Diagnostics: res.Diagnostics,
		Phases:      res.Phases,
	}
	annotate(r, "cache_hit", res.CacheHit, "tier", res.Tier)
	if res.Run != nil {
		resp.Run = &RunResponse{
			Mode:        mode.String(),
			ExitCode:    res.Run.ExitCode,
			Stdout:      res.Run.Stdout,
			Trapped:     res.Run.Trapped,
			TrapKind:    res.Run.TrapKind,
			TrapMessage: res.Run.TrapMessage,
			TrapPos:     res.Run.TrapPos,
			TrapStack:   res.Run.TrapStack,
			TrapBlame:   res.Run.TrapBlame,
			Steps:       res.Run.Steps,
			Checks:      res.Run.Checks,
			SimCycles:   res.Run.SimCycles,
			HotSites:    res.Run.TopCheckSites(5),
			ToolReports: res.Run.ToolReports,
			Trace:       json.RawMessage(res.Run.TraceJSON),
			Profile:     res.Run.Profile,
			BlackBox:    res.Run.BlackBox,
		}
		annotate(r, "trapped", res.Run.Trapped)
		if res.Run.Trapped {
			annotate(r, "trap_kind", res.Run.TrapKind, "trap_pos", res.Run.TrapPos)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.runner.Metrics())
}

// handlePrometheus serves the pipeline metrics in the Prometheus text
// exposition format. Scrapers that negotiate OpenMetrics via the Accept
// header get the OpenMetrics dialect with trace-ID exemplars on histogram
// buckets; everyone else gets classic 0.0.4 text, which must stay
// exemplar-free because its parser rejects anything after a sample value.
func (s *server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		pipeline.WriteOpenMetrics(w, s.runner.Metrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pipeline.WritePrometheus(w, s.runner.Metrics())
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyCheck is one named readiness condition in the /readyz reply.
type readyCheck struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Info string `json:"info,omitempty"`
}

// handleReadyz is the readiness probe: 200 only when the corpus is loaded,
// the artifact store (when configured) opened, and the worker pool started.
// Each condition is reported individually so a failing probe says why.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	m := s.runner.Metrics()
	checks := []readyCheck{
		{Name: "started", OK: s.ready.Load()},
		{Name: "corpus_loaded", OK: len(corpus.All()) > 0,
			Info: fmt.Sprintf("%d programs", len(corpus.All()))},
		{Name: "pool_started", OK: s.runner.Workers() > 0,
			Info: fmt.Sprintf("%d workers", s.runner.Workers())},
	}
	storeOK := !s.storeConfigured || m.Store != nil
	info := "not configured"
	if s.storeConfigured {
		info = "open"
		if m.Store == nil {
			info = "configured but not open"
		}
	}
	checks = append(checks, readyCheck{Name: "store_opened", OK: storeOK, Info: info})

	status := http.StatusOK
	ready := true
	for _, c := range checks {
		if !c.OK {
			ready = false
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, struct {
		Ready  bool         `json:"ready"`
		Checks []readyCheck `json:"checks"`
	}{ready, checks})
}

// traceSummary is one row of GET /traces.
type traceSummary struct {
	TraceID string    `json:"trace_id"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	DurMS   float64   `json:"dur_ms"`
	Err     string    `json:"err,omitempty"`
	Spans   int       `json:"spans"`
}

// handleTracesList lists recent request traces, newest first (?n= bounds
// the count, default 50).
func (s *server) handleTracesList(w http.ResponseWriter, r *http.Request) {
	buf := s.runner.Traces()
	if buf == nil {
		writeError(w, r, http.StatusNotFound, "request tracing is disabled")
		return
	}
	n := 50
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	out := []traceSummary{}
	for _, t := range buf.Recent(n) {
		out = append(out, traceSummary{TraceID: t.ID, Name: t.Name, Start: t.Start,
			DurMS: t.DurMS, Err: t.Err, Spans: len(t.Spans)})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraceGet renders one trace as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing): one track per retained request that
// carried the trace ID, each with the trace ID in its root span's args.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	buf := s.runner.Traces()
	if buf == nil {
		writeError(w, r, http.StatusNotFound, "request tracing is disabled")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/traces/")
	if !trace.ValidID(id) {
		writeError(w, r, http.StatusBadRequest, "trace ID must be 32 lowercase hex digits, got %q", id)
		return
	}
	reqs, ok := buf.Get(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, "no trace %q (buffer holds the most recent %d requests)",
			id, buf.Stats().Cap)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := flight.WriteRequestTrace(w, reqs); err != nil {
		annotate(r, "trace_id", id, "err", err.Error())
	}
}

// corpusEntry is one row of GET /corpus.
type corpusEntry struct {
	Name          string `json:"name"`
	Category      string `json:"category"`
	Lines         int    `json:"lines"`
	TrustBadCasts bool   `json:"trust_bad_casts,omitempty"`
}

func (s *server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	var out []corpusEntry
	for _, p := range corpus.All() {
		out = append(out, corpusEntry{
			Name:          p.Name,
			Category:      p.Category,
			Lines:         gocured.CountLines(p.Source),
			TrustBadCasts: p.TrustBadCasts,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleCorpusGet(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/corpus/")
	p := corpus.ByName(name)
	if p == nil {
		writeError(w, r, http.StatusNotFound, "no corpus program %q", name)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		corpusEntry
		Source     string `json:"source"`
		WantStdout string `json:"want_stdout,omitempty"`
	}{
		corpusEntry: corpusEntry{
			Name:          p.Name,
			Category:      p.Category,
			Lines:         gocured.CountLines(p.Source),
			TrustBadCasts: p.TrustBadCasts,
		},
		Source:     p.Source,
		WantStdout: p.WantStdout,
	})
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		os.Exit(1)
	}
}

// run parses args, serves until ctx is done, then drains in-flight
// requests. Every line it writes to stderr is a slog JSON record, from the
// startup lines to the shutdown line; an error it returns is logged first.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("ccserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	jobs := fs.Int("j", runtime.NumCPU(), "concurrent curing/execution jobs")
	cacheEntries := fs.Int("cache", pipeline.DefaultCacheEntries, "compile cache entries (negative disables)")
	stepLimit := fs.Uint64("step-limit", 200_000_000, "default interpreter step limit per run")
	jobTimeout := fs.Duration("timeout", 60*time.Second, "wall-clock bound per job (0 = none)")
	maxBytes := fs.Int64("max-request-bytes", 1<<20, "maximum POST /cure body size")
	pprofFlag := fs.Bool("pprof", false, "expose /debug/pprof/ profiling endpoints")
	storeDir := fs.String("store-dir", "", "persistent artifact store directory; compiles survive restarts (empty = memory cache only)")
	traceBuffer := fs.Int("trace-buffer", trace.DefaultBufferEntries, "request traces kept for GET /traces/{id} (negative disables)")
	queueDepth := fs.Int("queue-depth", 256, "admission queue bound; excess load is shed with 429 (0 = unbounded)")
	clientHeader := fs.String("client-header", DefaultClientHeader, "request header carrying the fair-queue client ID")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	logger := slog.New(slog.NewJSONHandler(stderr, nil))
	fail := func(msg string, err error) error {
		logger.Error(msg, "err", err.Error())
		return err
	}
	arts, err := pipeline.OpenStore(*storeDir)
	if err != nil {
		return fail("ccserve: open artifact store", err)
	}
	runner := pipeline.NewRunner(pipeline.RunnerOptions{
		Workers:            *jobs,
		CacheEntries:       *cacheEntries,
		DefaultStepLimit:   *stepLimit,
		JobTimeout:         *jobTimeout,
		Store:              arts,
		TraceBufferEntries: *traceBuffer,
		QueueDepth:         *queueDepth,
		CoalesceJobs:       true,
	})

	app := newServer(runner, serverConfig{MaxBytes: *maxBytes, Logger: logger,
		Pprof: *pprofFlag, StoreConfigured: *storeDir != "", ClientHeader: *clientHeader})
	srv := &http.Server{
		Handler:           app,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("ccserve: listen", err)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	// Store, runner, and listener are wired; let /readyz admit traffic.
	app.markReady()
	logger.Info("ccserve listening", "addr", ln.Addr().String(), "workers", runner.Workers(),
		"version", gocured.Version)
	if arts != nil {
		st := arts.Store().Stats()
		logger.Info("ccserve artifact store", "dir", *storeDir, "chunks", st.Chunks, "bytes", st.Bytes)
	}

	select {
	case err := <-errCh:
		return fail("ccserve: serve", err)
	case <-ctx.Done():
		logger.Info("ccserve shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fail("ccserve: shutdown", err)
		}
	}
	return nil
}
