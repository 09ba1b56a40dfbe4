package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gocured/internal/flight"
	"gocured/internal/pipeline"
	"gocured/internal/trace"
)

func testServer() *server {
	s := newServer(pipeline.NewRunner(pipeline.RunnerOptions{Workers: 2}), serverConfig{MaxBytes: 1 << 20})
	s.markReady() // main does this once the listener is up
	return s
}

func post(t *testing.T, s *server, body string) (*httptest.ResponseRecorder, CureResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/cure", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var resp CureResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, resp
}

func TestCureEndpoint(t *testing.T) {
	s := testServer()
	body := `{"name":"hello.c","source":"extern int printf(char *fmt, ...);\nint main(void){ printf(\"hi\\n\"); return 0; }","run":true,"mode":"cured"}`

	rec, resp := post(t, s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Run == nil || resp.Run.Stdout != "hi\n" || resp.Run.Trapped {
		t.Fatalf("run = %+v, want stdout %q", resp.Run, "hi\n")
	}
	if resp.Stats.Pointers == 0 || resp.Key == "" {
		t.Errorf("missing stats/key: %+v", resp)
	}
	if resp.CacheHit {
		t.Error("first request must miss the cache")
	}

	// The same source again is a cache hit.
	if _, resp2 := post(t, s, body); !resp2.CacheHit {
		t.Error("second request must hit the cache")
	}

	// A cured out-of-bounds program traps instead of erroring.
	oob := `{"source":"int main(void){ int a[2]; int i,t=0; for(i=0;i<=2;i++) t+=a[i]; return t; }","run":true}`
	rec, resp = post(t, s, oob)
	if rec.Code != http.StatusOK {
		t.Fatalf("oob status = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Run == nil || !resp.Run.Trapped || resp.Run.TrapKind != "bounds" {
		t.Fatalf("oob run = %+v, want bounds trap", resp.Run)
	}
}

func TestCureErrors(t *testing.T) {
	s := testServer()
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"empty source", `{"source":""}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		{"bad mode", `{"source":"int main(void){return 0;}","mode":"quick"}`, http.StatusBadRequest},
		{"syntax error", `{"source":"int main( {"}`, http.StatusUnprocessableEntity},
	} {
		rec, _ := post(t, s, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/cure", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /cure status = %d, want 405", rec.Code)
	}
}

func TestRequestSizeLimit(t *testing.T) {
	s := newServer(pipeline.NewRunner(pipeline.RunnerOptions{Workers: 1}), serverConfig{MaxBytes: 256})
	big := `{"source":"` + strings.Repeat("x", 1024) + `"}`
	rec, _ := post(t, s, big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer()
	post(t, s, `{"source":"int main(void){return 0;}","run":true,"mode":"raw"}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var m pipeline.Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if m.JobsRun != 1 || m.RunsExecuted != 1 {
		t.Errorf("metrics = %+v, want one job/run", m)
	}
}

func TestCorpusEndpoints(t *testing.T) {
	s := testServer()

	req := httptest.NewRequest(http.MethodGet, "/corpus", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var list []corpusEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list) == 0 {
		t.Fatalf("corpus list: err=%v n=%d", err, len(list))
	}

	req = httptest.NewRequest(http.MethodGet, "/corpus/"+list[0].Name, nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var prog struct {
		Name   string `json:"name"`
		Source string `json:"source"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &prog); err != nil || prog.Source == "" {
		t.Fatalf("corpus get: err=%v body=%s", err, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/corpus/no-such-program", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing program status = %d, want 404", rec.Code)
	}
}

func TestUnknownJSONFieldRejected(t *testing.T) {
	s := testServer()
	// "backend" is no field of the request: a client still selecting an
	// engine must be told so, not silently run on the VM.
	for _, field := range []string{"bogus_field", "backend"} {
		rec, _ := post(t, s, `{"source":"int main(void){return 0;}","`+field+`":"tree"}`)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400: %s", field, rec.Code, rec.Body.String())
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: error body not JSON: %v\n%s", field, err, rec.Body.String())
		}
		if e.Code != "bad_request" || !strings.Contains(e.Error, field) {
			t.Errorf("%s: error body = %+v, want code bad_request naming the field", field, e)
		}
	}
}

// TestPrometheusEndpoint sanity-checks the text exposition format: every
// sample line must belong to a family declared by a preceding # TYPE line,
// histogram buckets must be cumulative and end at +Inf == _count.
func TestPrometheusEndpoint(t *testing.T) {
	s := testServer()
	post(t, s, `{"source":"int main(void){return 0;}","run":true}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	body := rec.Body.String()
	typed := map[string]string{} // family -> type
	var lastInf, lastCount string
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok && typed[f] == "histogram" {
				fam = f
			}
		}
		if _, ok := typed[fam]; !ok {
			t.Errorf("sample %q has no # TYPE declaration", line)
		}
		if strings.Contains(line, `le="+Inf"`) {
			lastInf = strings.Fields(line)[1]
		}
		if strings.HasSuffix(name, "_count") && typed[fam] == "histogram" {
			lastCount = strings.Fields(line)[1]
			if lastInf != lastCount {
				t.Errorf("histogram %s: +Inf bucket %s != count %s", fam, lastInf, lastCount)
			}
		}
	}
	for _, want := range []string{"gocured_jobs_run_total 1", "gocured_runs_executed_total 1", "gocured_compile_wall_ms_bucket",
		// The store families are always declared, zero-valued without a
		// configured store, so scrapers and the CI smoke can rely on them.
		"gocured_store_hits_total 0", "gocured_store_misses_total 0",
		"gocured_store_bytes 0", "gocured_store_chunks 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
	// The classic 0.0.4 parser rejects anything after a sample value, so
	// the default exposition must never carry exemplar syntax even though
	// the job above recorded one for every histogram.
	if strings.Contains(body, "# {") {
		t.Errorf("0.0.4 exposition carries exemplar syntax:\n%s", body)
	}
}

// TestPrometheusOpenMetricsNegotiation checks the Accept-header switch: a
// scraper asking for application/openmetrics-text gets the OpenMetrics
// dialect with trace-ID exemplars and a terminating # EOF.
func TestPrometheusOpenMetricsNegotiation(t *testing.T) {
	s := testServer()
	post(t, s, `{"source":"int main(void){return 0;}","run":true}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("Content-Type = %q, want application/openmetrics-text", ct)
	}
	body := rec.Body.String()
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("OpenMetrics exposition does not end with # EOF")
	}
	if !strings.Contains(body, `# {trace_id="`) {
		t.Errorf("OpenMetrics exposition has no exemplars:\n%s", body)
	}
	// Counter families are declared without the _total sample suffix.
	if !strings.Contains(body, "# TYPE gocured_jobs_run counter") {
		t.Errorf("OpenMetrics TYPE line kept _total:\n%s", body)
	}
}

// TestPrometheusStoreMetrics boots two servers against one artifact-store
// directory: the first compile populates the store (misses + writes), a
// fresh server — fresh memory cache — then serves the same source from
// disk chunks, and both facts must be visible on /metrics/prometheus.
func TestPrometheusStoreMetrics(t *testing.T) {
	dir := t.TempDir()
	serve := func() *server {
		arts, err := pipeline.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return newServer(pipeline.NewRunner(pipeline.RunnerOptions{Workers: 1, Store: arts}),
			serverConfig{MaxBytes: 1 << 20})
	}
	prom := func(s *server) string {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		return rec.Body.String()
	}
	body := `{"name":"hello.c","source":"int main(void){ int i; int a[3]; int t = 0; for (i = 0; i < 3; i++) t += a[i]; return 0; }","run":true}`

	cold := serve()
	if rec, _ := post(t, cold, body); rec.Code != http.StatusOK {
		t.Fatalf("cold cure status = %d: %s", rec.Code, rec.Body.String())
	}
	got := prom(cold)
	for _, want := range []string{"gocured_store_misses_total", "gocured_store_writes_total"} {
		if !promSamplePositive(got, want) {
			t.Errorf("cold server: %s not positive in:\n%s", want, got)
		}
	}

	warm := serve()
	if rec, resp := post(t, warm, body); rec.Code != http.StatusOK || resp.CacheHit {
		t.Fatalf("warm cure: status = %d, cache_hit = %v (memory cache is fresh)", rec.Code, resp.CacheHit)
	}
	got = prom(warm)
	for _, want := range []string{"gocured_store_hits_total", "gocured_store_chunks",
		"gocured_store_bytes", "gocured_funcs_loaded_total"} {
		if !promSamplePositive(got, want) {
			t.Errorf("warm server: %s not positive in:\n%s", want, got)
		}
	}
	if promSamplePositive(got, "gocured_funcs_recured_total") {
		t.Errorf("warm server re-cured functions:\n%s", got)
	}
}

// promSamplePositive reports whether the exposition contains a sample line
// `name value` with value > 0.
func promSamplePositive(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name && fields[1] != "0" {
			return true
		}
	}
	return false
}

// TestCureTrapProvenance checks that a trapping run reports where it
// trapped, the call stack, the blame chain, and the hottest check sites.
func TestCureTrapProvenance(t *testing.T) {
	s := testServer()
	src := `int main(void){ int a[4]; int i, t = 0; for (i = 0; i <= 4; i++) t += a[i]; return t; }`
	rec, resp := post(t, s, `{"name":"oob.c","source":"`+src+`","run":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	run := resp.Run
	if run == nil || !run.Trapped {
		t.Fatalf("run = %+v, want a trap", run)
	}
	if !strings.Contains(run.TrapPos, "oob.c:") {
		t.Errorf("TrapPos = %q, want an oob.c position", run.TrapPos)
	}
	if len(run.TrapStack) == 0 || run.TrapStack[0] != "main" {
		t.Errorf("TrapStack = %v, want [main]", run.TrapStack)
	}
	if len(run.TrapBlame) == 0 {
		t.Errorf("TrapBlame is empty, want a blame chain")
	}
	if len(run.HotSites) == 0 || run.HotSites[0].Hits == 0 {
		t.Errorf("HotSites = %v, want at least one hot site", run.HotSites)
	}
	if len(resp.Phases) == 0 {
		t.Errorf("Phases is empty, want per-phase spans")
	}
}

func TestPprofGatedByFlag(t *testing.T) {
	off := testServer()
	rec := httptest.NewRecorder()
	off.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof off: status = %d, want 404", rec.Code)
	}

	on := newServer(pipeline.NewRunner(pipeline.RunnerOptions{Workers: 1}), serverConfig{Pprof: true})
	rec = httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof on: status = %d, want 200", rec.Code)
	}
}

// TestCureTraceOption requests a traced, profiled run of a trapping
// program and expects the trace, profile, and black box in the response.
func TestCureTraceOption(t *testing.T) {
	s := testServer()
	body := `{"source":"int main(void){ int a[2]; int i,t=0; for(i=0;i<=2;i++) t+=a[i]; return t; }","run":true,"trace":true,"profile_period":2}`
	rec, resp := post(t, s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Run == nil || !resp.Run.Trapped {
		t.Fatalf("run = %+v, want a trap", resp.Run)
	}
	if len(resp.Run.Trace) == 0 {
		t.Fatal("no trace in response")
	}
	if _, err := flight.ValidateTrace(resp.Run.Trace); err != nil {
		t.Fatalf("response trace invalid: %v", err)
	}
	if resp.Run.BlackBox == nil || len(resp.Run.BlackBox.Events) == 0 {
		t.Error("no black box on a traced trapped run")
	}
	if len(resp.Run.Profile) == 0 {
		t.Error("no profile despite profile_period")
	}

	// no_optimize is accepted and changes the cache key (no hit).
	noOpt := `{"source":"int main(void){ int a[2]; int i,t=0; for(i=0;i<=2;i++) t+=a[i]; return t; }","run":true,"options":{"no_optimize":true}}`
	if rec, resp := post(t, s, noOpt); rec.Code != http.StatusOK || resp.CacheHit {
		t.Errorf("no_optimize request: status %d, cache_hit %v", rec.Code, resp.CacheHit)
	}
}

// TestHealthReadyEndpoints checks the liveness and readiness probes.
func TestHealthReadyEndpoints(t *testing.T) {
	s := testServer()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz status = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	var rz struct {
		Ready  bool `json:"ready"`
		Checks []struct {
			Name string `json:"name"`
			OK   bool   `json:"ok"`
		} `json:"checks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil || !rz.Ready {
		t.Fatalf("readyz body: err=%v ready=%v %s", err, rz.Ready, rec.Body.String())
	}
	names := map[string]bool{}
	for _, c := range rz.Checks {
		names[c.Name] = c.OK
	}
	for _, want := range []string{"started", "corpus_loaded", "pool_started", "store_opened"} {
		if !names[want] {
			t.Errorf("readyz check %q missing or failing: %s", want, rec.Body.String())
		}
	}

	// Not yet started -> 503.
	s.ready.Store(false)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("unstarted /readyz status = %d, want 503", rec.Code)
	}
	s.ready.Store(true)

	// A configured-but-unopened store fails readiness.
	broken := newServer(pipeline.NewRunner(pipeline.RunnerOptions{Workers: 1}),
		serverConfig{StoreConfigured: true})
	rec = httptest.NewRecorder()
	broken.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("broken-store /readyz status = %d, want 503: %s", rec.Code, rec.Body.String())
	}
}

// TestStatusWriterDefaults pins the status accounting: implicit 200 on
// first Write, explicit codes win, and a handler that writes nothing still
// logs 200 — never 0.
func TestStatusWriterDefaults(t *testing.T) {
	newSW := func() *statusWriter { return &statusWriter{ResponseWriter: httptest.NewRecorder()} }

	sw := newSW()
	if sw.Status() != http.StatusOK {
		t.Errorf("untouched writer Status = %d, want 200", sw.Status())
	}

	sw = newSW()
	sw.Write([]byte("x"))
	if sw.Status() != http.StatusOK {
		t.Errorf("after implicit Write, Status = %d, want 200", sw.Status())
	}

	sw = newSW()
	sw.WriteHeader(http.StatusNotFound)
	sw.Write([]byte("x"))
	if sw.Status() != http.StatusNotFound {
		t.Errorf("explicit WriteHeader, Status = %d, want 404", sw.Status())
	}
}

// cure posts body with an optional traceparent header through the whole
// handler chain.
func cure(s *server, body, traceparent string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/cure", strings.NewReader(body))
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// echoedTraceID returns the trace-id of a response's Traceparent header.
func echoedTraceID(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	tid, ok := trace.ParseTraceparent(rec.Header().Get("Traceparent"))
	if !ok {
		t.Fatalf("response Traceparent %q does not parse", rec.Header().Get("Traceparent"))
	}
	return tid
}

// getTrace fetches GET /traces/{id}.
func getTrace(s *server, id string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces/"+id, nil))
	return rec
}

// TestCureTraceIDPropagation checks the server-minted trace ID: a request
// with no traceparent gets a 32-hex W3C trace-id, echoed verbatim in the
// body and the Traceparent header, that GET /traces/{id} resolves; and the
// traceparent header is the only inbound channel (a body trace_id is an
// unknown field).
func TestCureTraceIDPropagation(t *testing.T) {
	s := testServer()
	rec, resp := post(t, s, `{"source":"int main(void){return 0;}"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if !trace.ValidID(resp.TraceID) || len(resp.TraceID) != 32 {
		t.Fatalf("assigned trace ID %q is not 32-hex", resp.TraceID)
	}
	if echo := echoedTraceID(t, rec); echo != resp.TraceID {
		t.Fatalf("Traceparent echoes trace-id %q, body trace_id = %q", echo, resp.TraceID)
	}
	if got := getTrace(s, resp.TraceID); got.Code != http.StatusOK {
		t.Fatalf("GET /traces/%s (the echoed trace-id) = %d: %s", resp.TraceID, got.Code, got.Body.String())
	}

	// A body trace_id is not a channel: the request is refused.
	rec, _ = post(t, s, `{"source":"int main(void){return 1;}","trace_id":"`+trace.NewW3CTraceID()+`"}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unknown field") {
		t.Errorf("body trace_id: status = %d, want 400 unknown field: %s", rec.Code, rec.Body.String())
	}
}

// TestCureTraceparentPropagation covers the W3C trace-context path: a valid
// inbound traceparent's trace-id is adopted end to end (response header,
// body, and the stored trace), and a malformed one restarts the trace
// fresh and is counted.
func TestCureTraceparentPropagation(t *testing.T) {
	s := testServer()
	tid := trace.NewW3CTraceID()
	rec := cure(s, `{"source":"int main(void){return 0;}"}`, trace.Traceparent(tid))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp CureResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != tid {
		t.Fatalf("trace_id = %q, want adopted %q", resp.TraceID, tid)
	}
	if echo := echoedTraceID(t, rec); echo != tid {
		t.Fatalf("response Traceparent carries %q, want %q", echo, tid)
	}

	// The adopted ID resolves to a stored trace.
	trec := getTrace(s, tid)
	if trec.Code != http.StatusOK {
		t.Fatalf("GET /traces/%s = %d: %s", tid, trec.Code, trec.Body.String())
	}
	if !strings.Contains(trec.Body.String(), tid) {
		t.Error("stored trace does not carry the adopted trace-id")
	}

	// Malformed traceparent: per spec not an error — the trace restarts
	// with a server-minted ID and the discard is counted.
	for i, bad := range []string{"garbage", "ff-" + tid + "-00f067aa0ba902b7-01", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"} {
		rec := cure(s, `{"source":"int main(void){return 3;}"}`, bad)
		if rec.Code != http.StatusOK {
			t.Fatalf("malformed traceparent %q: status %d", bad, rec.Code)
		}
		var mresp CureResponse
		json.Unmarshal(rec.Body.Bytes(), &mresp)
		if mresp.TraceID == tid || !trace.ValidID(mresp.TraceID) {
			t.Fatalf("malformed traceparent %q adopted as %q", bad, mresp.TraceID)
		}
		if echo := echoedTraceID(t, rec); echo != mresp.TraceID {
			t.Fatalf("restarted trace echoes %q, body trace_id = %q", echo, mresp.TraceID)
		}
		m := s.runner.Metrics()
		if m.TraceparentMalformed != uint64(i+1) {
			t.Fatalf("traceparent_malformed = %d after %d bad headers", m.TraceparentMalformed, i+1)
		}
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
	}
}

// TestCureLogsOneLinePerRequest pins the request log: a trapping success,
// a failed compile, a refused body, a shed and the two requests that forced
// the shed each write exactly one line, and every /cure line carries its
// trace ID and status plus what the handler learned (trap, error, shed
// retry delay).
func TestCureLogsOneLinePerRequest(t *testing.T) {
	wedge := make(chan struct{})
	r := pipeline.NewRunner(pipeline.RunnerOptions{
		Workers:    1,
		QueueDepth: 1,
		Faults: &pipeline.Faults{ExecGate: func(j pipeline.Job) <-chan struct{} {
			if j.Name == "wedge.c" {
				return wedge
			}
			return nil
		}},
	})
	var logs bytes.Buffer
	s := newServer(r, serverConfig{MaxBytes: 1 << 20, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	s.markReady()

	if rec := cure(s, `{"name":"trap.c","source":"int main(void){ int a[2]; int i,t=0; for(i=0;i<=2;i++) t+=a[i]; return t; }","run":true}`, ""); rec.Code != http.StatusOK {
		t.Fatalf("trap.c status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := cure(s, `{"name":"bad.c","source":"int main(void) { return undeclared; }"}`, ""); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad.c status = %d, want 422", rec.Code)
	}
	// Refused before the runner: the trace ID is the adopted traceparent's.
	if rec := cure(s, `{"source":" "}`, trace.Traceparent(trace.NewW3CTraceID())); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty source status = %d, want 400", rec.Code)
	}
	done := make(chan int, 2)
	for _, name := range []string{"wedge.c", "queued.c"} {
		go func() { done <- cure(s, `{"name":"`+name+`","source":"int main(void){ return 5; }"}`, "").Code }()
		waitFor(t, func() bool {
			m := r.Metrics()
			return m.JobsInFlight == 1 && (name == "wedge.c" || m.QueueDepthNow == 1)
		})
	}
	if rec := cure(s, `{"name":"shed.c","source":"int main(void){ return 6; }"}`, ""); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed.c status = %d, want 429", rec.Code)
	}
	close(wedge)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("admitted request status = %d", code)
		}
	}

	lines := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		name, _ := rec["name"].(string)
		if _, dup := lines[name]; dup {
			t.Fatalf("request %q logged twice:\n%s", name, logs.String())
		}
		lines[name] = rec
		if rec["msg"] != "request" || rec["path"] != "/cure" || rec["status"] == nil {
			t.Errorf("not an access line with a status: %v", rec)
		}
		if tid, _ := rec["trace_id"].(string); !trace.ValidID(tid) {
			t.Errorf("%s: trace_id = %v, want a 32-hex trace ID", name, rec["trace_id"])
		}
	}
	if len(lines) != 6 {
		t.Fatalf("logged %d requests, want 6:\n%s", len(lines), logs.String())
	}
	for _, c := range []struct {
		name, level, key string
		status           float64
	}{
		{"trap.c", "INFO", "trap_kind", 200},
		{"bad.c", "WARN", "err", 422},
		{"", "WARN", "err", 400},
		{"shed.c", "WARN", "retry_after", 429},
		{"wedge.c", "INFO", "tier", 200},
		{"queued.c", "INFO", "tier", 200},
	} {
		rec := lines[c.name]
		if rec["level"] != c.level || rec["status"] != c.status || rec[c.key] == nil {
			t.Errorf("%s: level %v status %v, want %s %v with %q: %v", c.name, rec["level"], rec["status"], c.level, c.status, c.key, rec)
		}
	}
}

// TestTracesEndpoint exercises GET /traces and GET /traces/{id}: the
// Chrome trace for a compiled request must validate and cover queue wait,
// the cache tier, and every compile phase, with the trace ID in the root
// span's args.
func TestTracesEndpoint(t *testing.T) {
	s := testServer()
	rec, resp := post(t, s, `{"name":"traced.c","source":"int main(void){ int a[3]; int i,t=0; for(i=0;i<3;i++) t+=a[i]; return 0; }","run":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("cure status = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Tier != "compile" {
		t.Errorf("first request tier = %q, want compile", resp.Tier)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces/"+resp.TraceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/traces/{id} status = %d: %s", rec.Code, rec.Body.String())
	}
	if _, err := flight.ValidateTrace(rec.Body.Bytes()); err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, rec.Body.String())
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var rootTraceID string
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "B" {
			seen[ev.Name] = true
			if ev.Name == "request" && ev.Args != nil {
				rootTraceID, _ = ev.Args["trace_id"].(string)
			}
		}
	}
	for _, want := range []string{"request", "queue-wait", "compile", "cache-compile",
		"parse", "sema", "lower", "infer", "instrument", "run"} {
		if !seen[want] {
			t.Errorf("trace missing span %q; have %v", want, seen)
		}
	}
	if rootTraceID != resp.TraceID {
		t.Errorf("root span trace_id = %q, want %q", rootTraceID, resp.TraceID)
	}

	// The summary list includes the trace, newest first.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces?n=5", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/traces status = %d", rec.Code)
	}
	var list []struct {
		TraceID string `json:"trace_id"`
		Name    string `json:"name"`
		Spans   int    `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list) == 0 {
		t.Fatalf("/traces list: err=%v body=%s", err, rec.Body.String())
	}
	if list[0].TraceID != resp.TraceID || list[0].Spans == 0 {
		t.Errorf("latest trace = %+v, want %s", list[0], resp.TraceID)
	}

	// Malformed and unknown IDs.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces/not-an-id", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad id status = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces/ffffffffffffffffffffffffffffffff", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", rec.Code)
	}
}

// TestCacheHitTrace checks a second identical request reports the memory
// tier and its trace shows the cache span instead of compile phases.
func TestCacheHitTrace(t *testing.T) {
	s := testServer()
	body := `{"name":"hit.c","source":"int main(void){return 7;}"}`
	if rec, _ := post(t, s, body); rec.Code != http.StatusOK {
		t.Fatalf("first cure: %d", rec.Code)
	}
	rec, resp := post(t, s, body)
	if rec.Code != http.StatusOK || !resp.CacheHit || resp.Tier != "memory" {
		t.Fatalf("second cure: status=%d hit=%v tier=%q, want memory hit", rec.Code, resp.CacheHit, resp.Tier)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces/"+resp.TraceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/traces/{id} status = %d", rec.Code)
	}
	if _, err := flight.ValidateTrace(rec.Body.Bytes()); err != nil {
		t.Fatalf("hit trace invalid: %v", err)
	}
	bodyStr := rec.Body.String()
	if !strings.Contains(bodyStr, `"cache-memory"`) {
		t.Errorf("hit trace missing cache-memory span:\n%s", bodyStr)
	}
	if strings.Contains(bodyStr, `"parse"`) {
		t.Errorf("hit trace embeds stale compile phases:\n%s", bodyStr)
	}
}

// TestCureShedResponse pins the overload contract: when the queue is full
// the server answers 429 with a Retry-After header in whole seconds, a
// stable error code, and the trace ID — and the shed surfaces in the
// Prometheus families.
func TestCureShedResponse(t *testing.T) {
	gate := pipeline.NewStallGate()
	r := pipeline.NewRunner(pipeline.RunnerOptions{
		Workers:    1,
		QueueDepth: 1,
		Faults:     &pipeline.Faults{ExecGate: gate.Gate},
	})
	s := newServer(r, serverConfig{MaxBytes: 1 << 20})
	s.markReady()

	src := func(i int) string {
		return fmt.Sprintf(`{"name":"shed%d.c","source":"int main(void){ return %d; }"}`, i, i)
	}
	done := make(chan *httptest.ResponseRecorder, 2)
	postAsync := func(body string) {
		go func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cure", strings.NewReader(body)))
			done <- rec
		}()
	}
	// One request wedged on the worker, one filling the queue.
	postAsync(src(0))
	if !gate.WaitArrived(1, 5*time.Second) {
		t.Fatal("first request never reached the worker")
	}
	postAsync(src(1))
	deadline := time.Now().Add(5 * time.Second)
	for r.Metrics().QueueDepthNow != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The third must shed.
	rec, _ := post(t, s, src(2))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", rec.Header().Get("Retry-After"))
	}
	if _, ok := trace.ParseTraceparent(rec.Header().Get("Traceparent")); !ok {
		t.Errorf("shed response Traceparent = %q, want a valid echo", rec.Header().Get("Traceparent"))
	}
	var eb struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("shed body not JSON: %v\n%s", err, rec.Body.String())
	}
	if eb.Code != "too_many_requests" || !strings.Contains(eb.Error, "queue full") {
		t.Fatalf("shed body = %+v, want code too_many_requests / queue full reason", eb)
	}

	// Drain: release the wedged request, wait for the queued one to reach
	// the worker, release it too. Both must succeed.
	gate.Release(1)
	if !gate.WaitArrived(2, 5*time.Second) {
		t.Fatal("queued request never dispatched")
	}
	gate.Release(1)
	for i := 0; i < 2; i++ {
		if rec := <-done; rec.Code != http.StatusOK {
			t.Fatalf("admitted request %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	// The shed is visible in the exposition.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics/prometheus status = %d", rec.Code)
	}
	for _, want := range []string{
		"gocured_shed_total 1",
		"gocured_admitted_total 2",
		"gocured_queue_limit 1",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestCureCoalescing pins request coalescing at the HTTP level: two
// identical concurrent /cure requests cost one execution, one reply is
// marked "tier": "coalesced", and the coalesced counter shows it.
func TestCureCoalescing(t *testing.T) {
	gate := pipeline.NewStallGate()
	tracker := &pipeline.ExecTracker{}
	r := pipeline.NewRunner(pipeline.RunnerOptions{
		Workers:      2,
		CoalesceJobs: true,
		Faults:       &pipeline.Faults{OnExecute: tracker.Begin, OnDone: tracker.End, ExecGate: gate.Gate},
	})
	s := newServer(r, serverConfig{MaxBytes: 1 << 20})
	s.markReady()

	body := `{"name":"same.c","source":"int main(void){ return 3; }","run":true}`
	done := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cure", strings.NewReader(body)))
			done <- rec
		}()
	}
	if !gate.WaitArrived(1, 5*time.Second) {
		t.Fatal("no request reached the worker")
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Metrics().Coalesced != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	gate.ReleaseAll()

	tiers := map[string]int{}
	for i := 0; i < 2; i++ {
		rec := <-done
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		var resp CureResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Run == nil || resp.Run.ExitCode != 3 {
			t.Fatalf("run = %+v, want exit code 3", resp.Run)
		}
		tiers[resp.Tier]++
	}
	if tiers["coalesced"] != 1 {
		t.Errorf("reply tiers = %v, want exactly one coalesced", tiers)
	}
	if n := tracker.Total(); n != 1 {
		t.Errorf("%d executions for two identical requests, want 1", n)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil))
	if !strings.Contains(rec.Body.String(), "gocured_coalesced_total 1\n") {
		t.Error("exposition missing gocured_coalesced_total 1")
	}
}

// TestClientIDAttribution pins how requests map to fair-queue clients:
// the configured header wins, then the remote host without its port, then
// the raw remote address.
func TestClientIDAttribution(t *testing.T) {
	s := testServer()
	req := httptest.NewRequest(http.MethodPost, "/cure", nil)
	req.RemoteAddr = "198.51.100.7:4242"
	if got := s.clientID(req); got != "198.51.100.7" {
		t.Errorf("clientID = %q, want remote host", got)
	}
	req.Header.Set(DefaultClientHeader, "tenant-a")
	if got := s.clientID(req); got != "tenant-a" {
		t.Errorf("clientID = %q, want header value", got)
	}

	// A custom header config ignores the default header.
	s2 := newServer(pipeline.NewRunner(pipeline.RunnerOptions{Workers: 1}),
		serverConfig{ClientHeader: "X-Team"})
	if got := s2.clientID(req); got != "198.51.100.7" {
		t.Errorf("custom-header clientID = %q, want remote host", got)
	}
	req.Header.Set("X-Team", "blue")
	if got := s2.clientID(req); got != "blue" {
		t.Errorf("custom-header clientID = %q, want configured header value", got)
	}

	// Un-parseable remote addresses attribute as-is.
	req2 := httptest.NewRequest(http.MethodPost, "/cure", nil)
	req2.RemoteAddr = "pipe"
	if got := s.clientID(req2); got != "pipe" {
		t.Errorf("clientID = %q, want raw remote addr", got)
	}
}

// TestRetryAfterSeconds pins the RFC 9110 rendering: whole seconds,
// rounded up, never below 1.
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int64
	}{
		{0, 1},
		{50 * time.Millisecond, 1},
		{time.Second, 1},
		{1200 * time.Millisecond, 2},
		{5 * time.Second, 5},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestTraceKeepsEveryRequest posts a.c then b.c with one traceparent: GET
// /traces/{id} must return both requests' span lists, one track each, and
// GET /traces must list both.
func TestTraceKeepsEveryRequest(t *testing.T) {
	s := testServer()
	tid := trace.NewW3CTraceID()
	for _, name := range []string{"a.c", "b.c"} {
		rec := cure(s, `{"name":"`+name+`","source":"int main(void){return 0;}"}`, trace.Traceparent(tid))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", name, rec.Code, rec.Body.String())
		}
	}
	rec := getTrace(s, tid)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /traces/%s = %d: %s", tid, rec.Code, rec.Body.String())
	}
	if _, err := flight.ValidateTrace(rec.Body.Bytes()); err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, rec.Body.String())
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	roots := map[string]int{} // request name -> track
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "B" && ev.Name == "request" {
			if ev.Args["trace_id"] != tid {
				t.Errorf("root span args = %v, want trace_id %s", ev.Args, tid)
			}
			name, _ := ev.Args["name"].(string)
			roots[name] = ev.Tid
		}
	}
	if len(roots) != 2 || roots["a.c"] == 0 || roots["b.c"] == 0 || roots["a.c"] == roots["b.c"] {
		t.Errorf("request roots by name and track = %v, want a.c and b.c on two tracks", roots)
	}

	lrec := httptest.NewRecorder()
	s.ServeHTTP(lrec, httptest.NewRequest(http.MethodGet, "/traces", nil))
	var list []traceSummary
	if err := json.Unmarshal(lrec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range list {
		if r.TraceID == tid {
			names = append(names, r.Name)
		}
	}
	if strings.Join(names, ",") != "b.c,a.c" {
		t.Errorf("GET /traces lists %v under %s, want b.c then a.c", names, tid)
	}
}
