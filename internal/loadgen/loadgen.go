// Package loadgen drives synthetic cure/run traffic against a ccserve
// instance and reports latency distributions. It supports closed-loop
// generation (a fixed number of workers, each issuing its next request as
// soon as the previous completes — concurrency is the control variable)
// and open-loop generation (requests dispatched on a fixed arrival
// schedule regardless of completions — the harsher model, since queueing
// delay compounds instead of throttling the generator).
//
// Traffic is a weighted mix of request classes chosen to exercise the
// server's distinct cost paths:
//
//	hit    the same source every time: memory-cache hits
//	run    a fixed source with run:true: cache hit + interpreter execution
//	cure   a wholly fresh source every request: full compiles
//	edit   one function's body changes per request while the rest of the
//	       unit stays stable: incremental re-cure (store summary replay)
//	heavy  a fresh many-function unit every request: expensive full
//	       compiles, for overload runs that must saturate the worker pool
//	       at request rates the generator can sustain precisely
//
// Latencies aggregate into the same log-bucketed histograms the pipeline
// uses (internal/pipeline.LogHist), so quantiles here and server-side
// quantiles are directly comparable bucket-for-bucket.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gocured/internal/pipeline"
	"gocured/internal/trace"
)

// Config tunes one load run.
type Config struct {
	// BaseURL is the ccserve root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Duration bounds the run.
	Duration time.Duration
	// Concurrency is the closed-loop worker count (ignored when
	// RatePerSec > 0 selects open-loop mode).
	Concurrency int
	// RatePerSec, when positive, switches to open-loop generation at this
	// arrival rate.
	RatePerSec float64
	// Mix maps class name -> weight. Nil means DefaultMix.
	Mix map[string]int
	// Seed makes the class sequence reproducible.
	Seed int64
	// Client is the HTTP client (nil = a default with sane timeouts).
	Client *http.Client
}

// DefaultMix approximates a warm service: mostly cache hits and runs, a
// steady trickle of fresh compiles and incremental edits.
func DefaultMix() map[string]int {
	return map[string]int{"hit": 45, "run": 25, "edit": 20, "cure": 10}
}

// ClassResult is the per-class slice of a Result.
type ClassResult struct {
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	Shed      int     `json:"shed,omitempty"`
	CacheHits int     `json:"cache_hits"`
	MeanMS    float64 `json:"mean_ms"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
}

// Result is the outcome of one load run at one operating point.
type Result struct {
	Concurrency   int     `json:"concurrency"`
	RatePerSec    float64 `json:"rate_per_sec,omitempty"`
	DurationS     float64 `json:"duration_s"`
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Shed counts requests the server rejected with 429 (admission-control
	// load shedding). Shed requests are not errors — the overload gates
	// treat clean rejection as correct behaviour — and they are excluded
	// from the latency histograms, which cover admitted requests only.
	// ShedNoRetryAfter counts 429s whose Retry-After header was missing or
	// unparseable (expected 0: every shed must carry a backoff hint), and
	// Status5xx counts server-error responses (expected 0 under overload:
	// a melting server sheds with 429, it does not 500).
	Shed             int `json:"shed,omitempty"`
	ShedNoRetryAfter int `json:"shed_no_retry_after,omitempty"`
	Status5xx        int `json:"status_5xx,omitempty"`

	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`

	Classes map[string]ClassResult `json:"classes"`

	// SlowestMiss identifies the slowest non-cache-hit request of the run:
	// its trace covers every compile phase, which makes it the natural
	// candidate for the post-run trace check.
	SlowestMissTraceID string  `json:"slowest_miss_trace_id,omitempty"`
	SlowestMissMS      float64 `json:"slowest_miss_ms,omitempty"`
	SlowestMissClass   string  `json:"slowest_miss_class,omitempty"`

	// LastMiss is the most recently completed cache miss — a fallback
	// candidate for the trace check when the slowest miss has already been
	// evicted from the server's bounded trace buffer by later traffic.
	LastMissTraceID string  `json:"last_miss_trace_id,omitempty"`
	LastMissMS      float64 `json:"last_miss_ms,omitempty"`

	// TraceparentSent counts requests issued with a generator-minted W3C
	// traceparent header (every request); TraceparentEchoMismatch counts
	// responses that failed the round-trip check — the echoed Traceparent
	// header (or the reply's trace_id) did not carry the generated trace-id
	// back. Expected 0: the server must adopt and echo inbound trace
	// context verbatim.
	TraceparentSent         int `json:"traceparent_sent,omitempty"`
	TraceparentEchoMismatch int `json:"traceparent_echo_mismatch,omitempty"`
}

// cureReply is the slice of ccserve's CureResponse the generator needs.
type cureReply struct {
	TraceID  string `json:"trace_id"`
	CacheHit bool   `json:"cache_hit"`
	Tier     string `json:"tier"`
}

// ShedResponse is the error issue() returns for a 429: the server shed the
// request under admission control. HasRetryAfter reports whether the
// response carried a well-formed Retry-After header (it always should).
type ShedResponse struct {
	HasRetryAfter  bool
	RetryAfterSecs int
}

func (e *ShedResponse) Error() string {
	return fmt.Sprintf("shed (429, retry after %ds)", e.RetryAfterSecs)
}

// httpError is a non-2xx, non-429 response, keeping the status inspectable
// so the collector can count 5xx separately.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

// collector aggregates results across workers. One mutex for the counters;
// the histograms carry their own locks.
type collector struct {
	overall pipeline.LogHist
	classes map[string]*classCollector

	mu           sync.Mutex
	errors       int
	shed         int
	shedNoRetry  int
	status5xx    int
	tpSent       int
	tpMismatch   int
	slowestMS    float64
	slowestID    string
	slowestClass string
	lastMissMS   float64
	lastMissID   string
}

type classCollector struct {
	hist             pipeline.LogHist
	requests, errors atomic.Int64
	shed             atomic.Int64
	hits             atomic.Int64
}

// echoCheck reports the W3C traceparent round trip of one request: whether
// a traceparent was minted and sent, and whether the server's echo failed
// to carry the same trace-id back.
type echoCheck struct {
	Sent     bool
	Mismatch bool
}

func (c *collector) record(class string, ms float64, reply *cureReply, echo echoCheck, err error) {
	cc := c.classes[class]
	cc.requests.Add(1)
	if echo.Sent {
		c.mu.Lock()
		c.tpSent++
		if echo.Mismatch {
			c.tpMismatch++
		}
		c.mu.Unlock()
	}
	if err != nil {
		// A 429 is the server shedding load as designed, not a failure;
		// count it apart from errors and keep it out of the admitted-latency
		// histograms.
		var shed *ShedResponse
		if errors.As(err, &shed) {
			cc.shed.Add(1)
			c.mu.Lock()
			c.shed++
			if !shed.HasRetryAfter {
				c.shedNoRetry++
			}
			c.mu.Unlock()
			return
		}
		cc.errors.Add(1)
		c.mu.Lock()
		c.errors++
		var he *httpError
		if errors.As(err, &he) && he.status >= 500 {
			c.status5xx++
		}
		c.mu.Unlock()
		return
	}
	traceID := ""
	if reply != nil {
		traceID = reply.TraceID
		if reply.CacheHit {
			cc.hits.Add(1)
		}
	}
	c.overall.Observe(time.Duration(ms*float64(time.Millisecond)), traceID)
	cc.hist.Observe(time.Duration(ms*float64(time.Millisecond)), traceID)
	if reply != nil && !reply.CacheHit && traceID != "" {
		c.mu.Lock()
		if ms > c.slowestMS {
			c.slowestMS, c.slowestID, c.slowestClass = ms, traceID, class
		}
		c.lastMissMS, c.lastMissID = ms, traceID
		c.mu.Unlock()
	}
}

// gen holds the shared request-generation state.
type gen struct {
	cfg     Config
	client  *http.Client
	classes []string // expanded by weight for O(1) picks
	cureSeq atomic.Uint64
	editSeq atomic.Uint64
}

// baseProg is the body template. stable_sum and main never change; the
// edit class varies only edited()'s constants, the cure class varies all
// three slots (a wholly new unit every request).
const baseProg = `extern int printf(char *fmt, ...);

int stable_sum(int n) {
  int i, t = 0;
  int a[8];
  for (i = 0; i < 8; i++) a[i] = i + %d;
  for (i = 0; i < n && i < 8; i++) t += a[i];
  return t;
}

int edited(int x) { return x * %d + %d; }

int main(void) {
  int r = stable_sum(6) + edited(%d);
  return r & 255;
}
`

func progSource(stableK, mulK, addK, argK int) string {
	return fmt.Sprintf(baseProg, stableK, mulK, addK, argK)
}

// heavySource builds a fresh translation unit of nFuncs array-walking
// functions, unique per seed. One cure costs tens of milliseconds, so
// overload scenarios reach server saturation at request rates low enough
// that neither the generator's arrival ticker nor connection handling is
// the bottleneck — the server's admission queue is.
func heavySource(seed, nFuncs int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "/* heavy unit %d */\n", seed)
	for i := 0; i < nFuncs; i++ {
		fmt.Fprintf(&b,
			"int hf%d(int x) { int a[16]; int i, t = %d; for (i = 0; i < 16; i++) { a[i] = x + i * %d; t += a[i]; } return t; }\n",
			i, seed+i, i+1)
	}
	b.WriteString("int main(void) {\n  int s = 0;\n")
	for i := 0; i < nFuncs; i++ {
		fmt.Fprintf(&b, "  s += hf%d(%d);\n", i, i)
	}
	b.WriteString("  return s & 255;\n}\n")
	return b.String()
}

// body builds the POST /cure payload for one request of a class.
func (g *gen) body(class string) []byte {
	type reqBody struct {
		Name   string `json:"name"`
		Source string `json:"source"`
		Run    bool   `json:"run,omitempty"`
		Mode   string `json:"mode,omitempty"`
	}
	var b reqBody
	switch class {
	case "hit":
		b = reqBody{Name: "load-hit.c", Source: progSource(1, 3, 1, 2)}
	case "run":
		b = reqBody{Name: "load-run.c", Source: progSource(1, 3, 1, 2), Run: true, Mode: "cured"}
	case "cure":
		n := int(g.cureSeq.Add(1))
		b = reqBody{Name: "load-cure.c", Source: progSource(n%251, n%127+1, n%89, n%7)}
	case "heavy":
		// A fresh many-function unit: one request costs a substantial
		// compile, for overload scenarios that must saturate the worker
		// pool at low request rates. The run seed salts the unit so
		// separate runs (sweep vs overload) never share cache entries.
		n := int(g.cureSeq.Add(1))
		b = reqBody{Name: "load-heavy.c", Source: heavySource(int(g.cfg.Seed)*1_000_003+n, 40)}
	case "edit":
		// Only edited()'s constants move: stable_sum and main keep their
		// fingerprints, so a store-backed server replays them (tier "disk").
		n := int(g.editSeq.Add(1))
		b = reqBody{Name: "load-edit.c", Source: progSource(1, n%127+1, n%89, 2)}
	default:
		panic("loadgen: unknown class " + class)
	}
	data, err := json.Marshal(b)
	if err != nil {
		panic(err)
	}
	return data
}

// issue sends one request and returns (latency ms, parsed reply, the
// traceparent round-trip check, error). Every request carries a freshly
// minted W3C traceparent; the server must adopt its trace-id and echo it
// back both as the response Traceparent header and the reply's trace_id.
func (g *gen) issue(ctx context.Context, class string) (float64, *cureReply, echoCheck, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.cfg.BaseURL+"/cure",
		bytes.NewReader(g.body(class)))
	if err != nil {
		return 0, nil, echoCheck{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	tid := trace.NewW3CTraceID()
	req.Header.Set("Traceparent", trace.Traceparent(tid))
	echo := echoCheck{Sent: true}
	// checkEcho runs once a response arrived: the echoed header must parse
	// and carry the minted trace-id verbatim. Transport failures skip the
	// check (there is no response to inspect).
	checkEcho := func(resp *http.Response) {
		got, ok := trace.ParseTraceparent(resp.Header.Get("Traceparent"))
		if !ok || got != tid {
			echo.Mismatch = true
		}
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return ms, nil, echoCheck{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 10<<20))
	if err != nil {
		return ms, nil, echoCheck{}, err
	}
	ms = float64(time.Since(start)) / float64(time.Millisecond)
	if resp.StatusCode == http.StatusTooManyRequests {
		checkEcho(resp)
		ra := resp.Header.Get("Retry-After")
		secs, perr := strconv.Atoi(ra)
		return ms, nil, echo, &ShedResponse{
			HasRetryAfter:  ra != "" && perr == nil && secs >= 1,
			RetryAfterSecs: secs,
		}
	}
	if resp.StatusCode != http.StatusOK {
		// The server sets Traceparent on every outcome, so error responses
		// are checked too — otherwise an echo regression that only shows on
		// 4xx/5xx would be invisible to the -gate mismatch check.
		checkEcho(resp)
		return ms, nil, echo, &httpError{status: resp.StatusCode,
			err: fmt.Errorf("%s: status %d: %.200s", class, resp.StatusCode, data)}
	}
	checkEcho(resp)
	var reply cureReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return ms, nil, echo, fmt.Errorf("%s: bad reply: %w", class, err)
	}
	if reply.TraceID != tid {
		echo.Mismatch = true
	}
	return ms, &reply, echo, nil
}

// Run executes one load run and aggregates the results. Closed-loop when
// cfg.RatePerSec <= 0, open-loop otherwise.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.BaseURL == "" {
		return Result{}, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	mix := cfg.Mix
	if mix == nil {
		mix = DefaultMix()
	}
	client := cfg.Client
	if client == nil {
		// The whole harness talks to one host at high concurrency; the
		// default transport keeps only 2 idle connections per host, which
		// makes the generator churn a fresh TCP connection per request and
		// bottleneck on dials long before the server saturates.
		// No MaxConnsPerHost cap: capping it would hide overload in a
		// client-side connection queue — arrivals must reach the server so
		// its admission policy (not this harness) decides their fate.
		client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 512,
			},
		}
	}

	g := &gen{cfg: cfg, client: client}
	// Expand weights into a pick table with a stable class order.
	names := make([]string, 0, len(mix))
	for name := range mix {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i := 0; i < mix[name]; i++ {
			g.classes = append(g.classes, name)
		}
	}
	if len(g.classes) == 0 {
		return Result{}, fmt.Errorf("loadgen: empty mix")
	}

	col := &collector{classes: make(map[string]*classCollector, len(names))}
	for _, name := range names {
		col.classes[name] = &classCollector{}
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup

	oneRequest := func(rng *rand.Rand) {
		class := g.classes[rng.Intn(len(g.classes))]
		ms, reply, echo, err := g.issue(ctx, class) // ctx, not runCtx: in-flight requests finish
		col.record(class, ms, reply, echo, err)
	}

	if cfg.RatePerSec > 0 {
		// Open loop: arrivals on a fixed schedule, one goroutine each.
		interval := time.Duration(float64(time.Second) / cfg.RatePerSec)
		if interval <= 0 {
			interval = time.Microsecond
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
	arrivals:
		for {
			select {
			case <-runCtx.Done():
				break arrivals
			case <-ticker.C:
				wg.Add(1)
				class := g.classes[rng.Intn(len(g.classes))]
				go func() {
					defer wg.Done()
					ms, reply, echo, err := g.issue(ctx, class)
					col.record(class, ms, reply, echo, err)
				}()
			}
		}
	} else {
		// Closed loop: each worker issues back-to-back requests.
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
				for runCtx.Err() == nil {
					oneRequest(rng)
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := col.overall.Snapshot()
	res := Result{
		Concurrency:      cfg.Concurrency,
		RatePerSec:       cfg.RatePerSec,
		DurationS:        float64(elapsed) / float64(time.Second),
		Requests:         int(snap.Count) + col.errors + col.shed,
		Errors:           col.errors,
		Shed:             col.shed,
		ShedNoRetryAfter: col.shedNoRetry,
		Status5xx:        col.status5xx,
		ThroughputRPS:    float64(snap.Count) / (float64(elapsed) / float64(time.Second)),
		MeanMS:           snap.MeanMS(),
		P50MS:            snap.Quantile(0.50),
		P90MS:            snap.Quantile(0.90),
		P99MS:            snap.Quantile(0.99),
		P999MS:           snap.Quantile(0.999),
		MaxMS:            snap.MaxMS,
		Classes:          make(map[string]ClassResult, len(names)),

		SlowestMissTraceID: col.slowestID,
		SlowestMissMS:      col.slowestMS,
		SlowestMissClass:   col.slowestClass,
		LastMissTraceID:    col.lastMissID,
		LastMissMS:         col.lastMissMS,

		TraceparentSent:         col.tpSent,
		TraceparentEchoMismatch: col.tpMismatch,
	}
	for _, name := range names {
		cc := col.classes[name]
		cs := cc.hist.Snapshot()
		res.Classes[name] = ClassResult{
			Requests:  int(cc.requests.Load()),
			Errors:    int(cc.errors.Load()),
			Shed:      int(cc.shed.Load()),
			CacheHits: int(cc.hits.Load()),
			MeanMS:    cs.MeanMS(),
			P50MS:     cs.Quantile(0.50),
			P99MS:     cs.Quantile(0.99),
			MaxMS:     cs.MaxMS,
		}
	}
	return res, nil
}
