package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"gocured/internal/flight"
	"gocured/internal/pipeline"
)

// RequiredCompileSpans lists the span names a full-compile request trace
// must contain for the post-run trace check: the request envelope, queue
// wait, the compile window, and every front-end phase the core emits.
// Cache-tier spans are checked separately by prefix (cache-compile,
// cache-disk, ...) since the tier name varies.
var RequiredCompileSpans = []string{
	"request", "queue-wait", "compile",
	"parse", "sema", "lower", "infer", "instrument",
}

// WaitReady polls GET /readyz until it returns 200 or the timeout lapses.
func WaitReady(ctx context.Context, client *http.Client, baseURL string, timeout time.Duration) error {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("readyz: status %d: %.200s", resp.StatusCode, body)
		} else {
			last = err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
	return fmt.Errorf("loadgen: server not ready after %v: %w", timeout, last)
}

// TraceCheck records the outcome of validating one request trace fetched
// from GET /traces/{id}.
type TraceCheck struct {
	OK      bool     `json:"ok"`
	TraceID string   `json:"trace_id"`
	Events  int      `json:"events"`
	Spans   []string `json:"spans,omitempty"`
	Missing []string `json:"missing,omitempty"`
	Err     string   `json:"error,omitempty"`
}

// CheckTrace fetches /traces/{id} and verifies the acceptance contract
// for a sampled high-latency request: the payload is ValidateTrace-clean
// Chrome trace JSON, its root args carry the matching trace ID, a
// cache-tier span is present, and every name in wantSpans appears.
func CheckTrace(ctx context.Context, client *http.Client, baseURL, traceID string, wantSpans []string) TraceCheck {
	tc := TraceCheck{TraceID: traceID}
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	if traceID == "" {
		tc.Err = "no trace ID sampled (no cache-miss request completed?)"
		return tc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/traces/"+traceID, nil)
	if err != nil {
		tc.Err = err.Error()
		return tc
	}
	resp, err := client.Do(req)
	if err != nil {
		tc.Err = err.Error()
		return tc
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 10<<20))
	if err != nil {
		tc.Err = err.Error()
		return tc
	}
	if resp.StatusCode != http.StatusOK {
		tc.Err = fmt.Sprintf("GET /traces/%s: status %d: %.200s", traceID, resp.StatusCode, data)
		return tc
	}

	n, err := flight.ValidateTrace(data)
	tc.Events = n
	if err != nil {
		tc.Err = "trace validation: " + err.Error()
		return tc
	}

	var doc struct {
		TraceEvents []flight.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		tc.Err = err.Error()
		return tc
	}
	seen := map[string]bool{}
	gotID := ""
	cacheTier := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "B" {
			continue
		}
		seen[ev.Name] = true
		if len(ev.Name) > 6 && ev.Name[:6] == "cache-" {
			cacheTier = true
		}
		if id, ok := ev.Args["trace_id"].(string); ok && gotID == "" {
			gotID = id
		}
	}
	for name := range seen {
		tc.Spans = append(tc.Spans, name)
	}
	sort.Strings(tc.Spans)
	for _, want := range wantSpans {
		if !seen[want] {
			tc.Missing = append(tc.Missing, want)
		}
	}
	if !cacheTier {
		tc.Missing = append(tc.Missing, "cache-<tier>")
	}
	switch {
	case gotID == "":
		tc.Err = "trace carries no trace_id arg"
	case gotID != traceID:
		tc.Err = fmt.Sprintf("trace_id mismatch: trace says %q, requested %q", gotID, traceID)
	case len(tc.Missing) > 0:
		tc.Err = fmt.Sprintf("missing spans: %v", tc.Missing)
	default:
		tc.OK = true
	}
	return tc
}

// FetchMetrics grabs the server's /metrics JSON snapshot, used post-run to
// gate on dropped traces and to report server-side queue behaviour.
func FetchMetrics(ctx context.Context, client *http.Client, baseURL string) (*pipeline.Metrics, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 10<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var m pipeline.Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}
