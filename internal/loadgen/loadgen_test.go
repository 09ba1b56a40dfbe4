package loadgen

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gocured/internal/flight"
	"gocured/internal/pipeline"
	"gocured/internal/trace"
)

// stubServer mimics just enough of ccserve's surface for the generator:
// /cure (classifying hit vs miss by request name), /readyz, /metrics,
// and /traces/{id}.
func stubServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var cures atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/cure", func(w http.ResponseWriter, r *http.Request) {
		cures.Add(1)
		body, _ := io.ReadAll(r.Body)
		var req struct {
			Name   string `json:"name"`
			Source string `json:"source"`
		}
		if err := json.Unmarshal(body, &req); err != nil || req.Source == "" {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		hit := req.Name == "load-hit.c" || req.Name == "load-run.c"
		// Adopt inbound W3C trace context like the real server does.
		id, ok := trace.ParseTraceparent(r.Header.Get("Traceparent"))
		if !ok {
			id = trace.NewW3CTraceID()
		}
		tier := "compile"
		if hit {
			tier = "memory"
		}
		if !hit {
			time.Sleep(2 * time.Millisecond) // misses are the slow path
		}
		w.Header().Set("Traceparent", trace.Traceparent(id))
		json.NewEncoder(w).Encode(map[string]any{
			"trace_id": id, "cache_hit": hit, "tier": tier,
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(pipeline.Metrics{})
	})
	mux.HandleFunc("/traces/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/traces/")
		spans := []trace.Span{
			{Name: "request", StartMS: 0, DurMS: 10, Depth: 0},
			{Name: "queue-wait", StartMS: 0, DurMS: 1, Depth: 1},
			{Name: "compile", StartMS: 1, DurMS: 8, Depth: 1},
			{Name: "cache-compile", StartMS: 1, DurMS: 0.01, Depth: 2},
			{Name: "parse", StartMS: 1.1, DurMS: 1, Depth: 2},
			{Name: "sema", StartMS: 2.2, DurMS: 1, Depth: 2},
			{Name: "lower", StartMS: 3.3, DurMS: 1, Depth: 2},
			{Name: "infer", StartMS: 4.4, DurMS: 1, Depth: 2},
			{Name: "instrument", StartMS: 5.5, DurMS: 1, Depth: 2},
		}
		flight.WriteSpanTrace(w, "trace "+id, spans, map[string]any{"trace_id": id})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &cures
}

func TestRunClosedLoop(t *testing.T) {
	srv, cures := stubServer(t)
	res, err := Run(context.Background(), Config{
		BaseURL:     srv.URL,
		Duration:    400 * time.Millisecond,
		Concurrency: 4,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || int64(res.Requests) != cures.Load() {
		t.Fatalf("requests = %d, server saw %d", res.Requests, cures.Load())
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0", res.Errors)
	}
	if res.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v", res.ThroughputRPS)
	}
	for _, class := range []string{"hit", "run", "cure", "edit"} {
		cr, ok := res.Classes[class]
		if !ok || cr.Requests == 0 {
			t.Fatalf("class %q missing or empty: %+v", class, res.Classes)
		}
		if class == "hit" && cr.CacheHits != cr.Requests {
			t.Fatalf("hit class: %d hits of %d requests", cr.CacheHits, cr.Requests)
		}
	}
	if !(res.P50MS <= res.P99MS && res.P99MS <= res.P999MS) {
		t.Fatalf("quantiles out of order: p50=%v p99=%v p999=%v", res.P50MS, res.P99MS, res.P999MS)
	}
	if res.SlowestMissTraceID == "" || !trace.ValidID(res.SlowestMissTraceID) {
		t.Fatalf("no slowest-miss trace sampled: %+v", res)
	}
	if res.SlowestMissClass == "hit" || res.SlowestMissClass == "run" {
		t.Fatalf("slowest miss attributed to cache-hit class %q", res.SlowestMissClass)
	}
	if res.TraceparentSent != res.Requests {
		t.Fatalf("traceparent sent on %d of %d requests", res.TraceparentSent, res.Requests)
	}
	if res.TraceparentEchoMismatch != 0 {
		t.Fatalf("%d traceparent echo mismatches against an adopting server", res.TraceparentEchoMismatch)
	}
}

// TestTraceparentEchoMismatch drives the generator against servers that
// break the W3C round trip — one echoing a foreign trace-id, one echoing
// nothing — and expects every response to be counted as a mismatch.
func TestTraceparentEchoMismatch(t *testing.T) {
	cases := map[string]func(w http.ResponseWriter, id string){
		"foreign-id": func(w http.ResponseWriter, id string) {
			w.Header().Set("Traceparent", trace.Traceparent(trace.NewW3CTraceID()))
		},
		"no-echo": func(w http.ResponseWriter, id string) {},
	}
	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("/cure", func(w http.ResponseWriter, r *http.Request) {
				id := trace.NewW3CTraceID()
				mangle(w, id)
				json.NewEncoder(w).Encode(map[string]any{
					"trace_id": id, "cache_hit": true, "tier": "memory",
				})
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()

			res, err := Run(context.Background(), Config{
				BaseURL:     srv.URL,
				Duration:    200 * time.Millisecond,
				Concurrency: 2,
				Mix:         map[string]int{"hit": 1},
				Seed:        3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requests == 0 {
				t.Fatal("no requests issued")
			}
			if res.TraceparentEchoMismatch != res.Requests {
				t.Fatalf("mismatches = %d, want %d (every response)", res.TraceparentEchoMismatch, res.Requests)
			}
		})
	}
}

func TestRunOpenLoop(t *testing.T) {
	srv, _ := stubServer(t)
	res, err := Run(context.Background(), Config{
		BaseURL:    srv.URL,
		Duration:   400 * time.Millisecond,
		RatePerSec: 200,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests < 20 {
		t.Fatalf("open loop at 200/s for 400ms made only %d requests", res.Requests)
	}
	if res.RatePerSec != 200 {
		t.Fatalf("RatePerSec = %v", res.RatePerSec)
	}
}

func TestRunEmptyMixRejected(t *testing.T) {
	srv, _ := stubServer(t)
	_, err := Run(context.Background(), Config{
		BaseURL: srv.URL,
		Mix:     map[string]int{},
	})
	if err == nil {
		t.Fatal("empty mix accepted")
	}
}

func TestWaitReady(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if err := WaitReady(context.Background(), nil, srv.URL, 5*time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if calls.Load() < 3 {
		t.Fatalf("readyz polled %d times, want >= 3", calls.Load())
	}
}

func TestWaitReadyTimeout(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "never ready", http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	err := WaitReady(context.Background(), nil, srv.URL, 300*time.Millisecond)
	if err == nil {
		t.Fatal("WaitReady succeeded against a 503 server")
	}
	if !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckTrace(t *testing.T) {
	srv, _ := stubServer(t)
	id := trace.NewW3CTraceID()
	tc := CheckTrace(context.Background(), nil, srv.URL, id, RequiredCompileSpans)
	if !tc.OK {
		t.Fatalf("trace check failed: %+v", tc)
	}
	if tc.Events == 0 || len(tc.Spans) == 0 {
		t.Fatalf("no events/spans recorded: %+v", tc)
	}

	// Empty ID is a clean failure, not a panic.
	tc = CheckTrace(context.Background(), nil, srv.URL, "", RequiredCompileSpans)
	if tc.OK || tc.Err == "" {
		t.Fatalf("empty trace ID should fail: %+v", tc)
	}

	// A trace missing required spans fails with the missing list populated.
	tc = CheckTrace(context.Background(), nil, srv.URL, id, append([]string{"no-such-span"}, RequiredCompileSpans...))
	if tc.OK {
		t.Fatal("trace check passed despite missing span")
	}
	found := false
	for _, m := range tc.Missing {
		if m == "no-such-span" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing list %v lacks no-such-span", tc.Missing)
	}
}

func TestCheckTraceIDMismatch(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/traces/", func(w http.ResponseWriter, r *http.Request) {
		spans := []trace.Span{{Name: "request", DurMS: 1}}
		flight.WriteSpanTrace(w, "t", spans, map[string]any{"trace_id": "deadbeefdeadbeef"})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	tc := CheckTrace(context.Background(), nil, srv.URL, trace.NewW3CTraceID(), nil)
	if tc.OK || !strings.Contains(tc.Err, "mismatch") {
		t.Fatalf("want trace_id mismatch, got %+v", tc)
	}
}

func TestFetchMetrics(t *testing.T) {
	srv, _ := stubServer(t)
	m, err := FetchMetrics(context.Background(), nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil metrics")
	}
}

func TestProgSourceClasses(t *testing.T) {
	g := &gen{}
	// hit and run share a source (and thus, at the server, a compile-cache
	// key modulo name); cure and edit vary per call.
	h1, h2 := g.body("hit"), g.body("hit")
	if string(h1) != string(h2) {
		t.Fatal("hit class should be deterministic")
	}
	c1, c2 := g.body("cure"), g.body("cure")
	if string(c1) == string(c2) {
		t.Fatal("cure class should vary per request")
	}
	e1, e2 := g.body("edit"), g.body("edit")
	if string(e1) == string(e2) {
		t.Fatal("edit class should vary per request")
	}
	// The edit class must keep stable_sum's text fixed while varying
	// edited(): check the stable region is shared.
	var r1, r2 struct{ Source string }
	json.Unmarshal(e1, &r1)
	json.Unmarshal(e2, &r2)
	stable := "a[i] = i + 1;"
	if !strings.Contains(r1.Source, stable) || !strings.Contains(r2.Source, stable) {
		t.Fatal("edit class mutated the stable function")
	}
}
