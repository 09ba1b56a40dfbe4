package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gocured"
	"gocured/internal/trace"
)

// primeEdits is how many distinct edits serve-edit's set-up sends: enough
// to fill ccserve's 256-entry compile cache and start evicting, so the
// timed phase measures the steady state, not a filling cache.
const primeEdits = 300

// server is one ccserve process.
type server struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	log     *os.File
	done    chan error
}

// startServer execs ccserve on a free loopback port with its log going to
// a file.
func startServer(rc runConfig, args []string, logName string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(rc.outDir, logName))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(rc.ccserve, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, started: time.Now(), log: logf, done: make(chan error, 1)}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start ccserve: %w", err)
	}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// waitReady polls /readyz every millisecond, so set-up time is not
// quantized by the poll interval.
func (s *server) waitReady(c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("ccserve exited before it was ready: %v (log %s)", err, s.log.Name())
		default:
		}
		if resp, err := c.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("ccserve not ready after 60s (log %s)", s.log.Name())
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// request is one prepared POST /cure body.
type request struct {
	p    *benchProgram
	body []byte
}

func cureBody(p *benchProgram, src string) []byte {
	body, _ := json.Marshal(map[string]any{
		"name":    p.file,
		"source":  src,
		"options": map[string]bool{"trust_bad_casts": p.opts.TrustBadCasts},
	})
	return body
}

// reply is the part of a /cure reply the benchmark checks and traces.
type reply struct {
	Tier   string        `json:"tier"`
	Stats  gocured.Stats `json:"stats"`
	Phases []trace.Span  `json:"phases"`
}

// opResult is one timed request.
type opResult struct {
	p      *benchProgram
	conn   int
	start  time.Time
	lat    float64 // ms, send to last reply byte
	ok     bool
	err    error
	bytes  int
	phases []trace.Span // kept in traced phases only
}

// loadgen is the benchmark's own closed-loop generator: each connection
// sends its next request as soon as the previous reply is in, as callers
// that wait for their result (CI jobs, editors) do.
type loadgen struct {
	client *http.Client
	url    string
	conns  int
	next   func(conn int) *request
	check  func(*request, *reply) error
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// run drives the loop until the deadline passes or limit requests have
// been sent (limit 0: no limit). keep retains the spans of every other
// reply on each connection, so traced and plain requests interleave.
func (g *loadgen) run(deadline time.Time, limit int, keep bool) []opResult {
	var sent atomic.Int64
	per := make([][]opResult, g.conns)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && (limit == 0 || sent.Add(1) <= int64(limit)) {
				r := g.do(g.next(c), keep && len(per[c])%2 == 0)
				r.conn = c
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	var out []opResult
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// do sends one request, timing it from send to the last reply byte; the
// reply is decoded and checked outside the timed interval.
func (g *loadgen) do(req *request, keep bool) opResult {
	r := opResult{p: req.p, start: time.Now()}
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		r.err = err
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.lat = ms(time.Since(r.start))
	switch {
	case err != nil:
		r.err = err
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		var rep reply
		if r.err = json.Unmarshal(data, &rep); r.err == nil {
			r.err = g.check(req, &rep)
		}
		r.phases = rep.Phases
	}
	r.bytes = len(data)
	if r.err != nil {
		r.phases = nil
		return r
	}
	if !keep {
		r.phases = nil
	}
	r.ok = true
	return r
}

// serveRun is a started, primed server with its generator.
type serveRun struct {
	sv    *server
	gen   *loadgen
	setup []float64
}

// startPrimed performs the serve set-up setupReps times: exec ccserve,
// wait until ready, prime it. Each set-up is timed; the last server stays
// up for the measured phase.
func startPrimed(rc runConfig, args func() ([]string, error), newGen func(base string) *loadgen, prime func(*loadgen) error) (*serveRun, error) {
	sr := &serveRun{}
	for rep := 0; rep < setupReps; rep++ {
		a, err := args()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sv, err := startServer(rc, a, fmt.Sprintf("ccserve-%s-%d.log", rc.workload, rep))
		if err != nil {
			return nil, err
		}
		gen := newGen(sv.base)
		if err := sv.waitReady(gen.client); err != nil {
			sv.stop()
			return nil, err
		}
		if err := prime(gen); err != nil {
			sv.stop()
			return nil, err
		}
		sr.setup = append(sr.setup, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			gen.client.CloseIdleConnections()
			sv.stop()
			continue
		}
		sr.sv, sr.gen = sv, gen
	}
	return sr, nil
}

// primeLoop sends n requests through the generator and fails on any error:
// set-up must leave the server in its intended state.
func primeLoop(g *loadgen, n int) error {
	for _, r := range g.run(time.Now().Add(time.Hour), n, false) {
		if !r.ok {
			return fmt.Errorf("set-up: priming request for %s: %w", r.p.name, r.err)
		}
	}
	return nil
}

// measureServe runs the timed phase. In a traced run every other request
// keeps its reply's span list, /metrics and /debug/vars are scraped around
// the phase, and the tracing overhead is the traced requests' median
// latency over the plain ones'.
func measureServe(rc runConfig, sr *serveRun, o *outcome) error {
	defer sr.sv.stop()
	defer sr.gen.client.CloseIdleConnections()
	var m0 *metricsScrape
	var v0 *varsScrape
	if rc.trace {
		var err error
		if m0, v0, err = scrape(sr); err != nil {
			return err
		}
	}
	gen0 := selfCPUSeconds()
	start, stop := sampleCPU(sr.sv.pid())
	rs := sr.gen.run(start.at.Add(time.Duration(rc.seconds*float64(time.Second))), 0, rc.trace)
	samples := stop()
	genCPU := selfCPUSeconds() - gen0
	o.windows = cutWindows(rs, samples)
	o.wall = samples[len(samples)-1].at.Sub(start.at).Seconds()
	o.lat = o.tally(rs)
	o.rssMB = peakRSSMB(strconv.Itoa(sr.sv.pid()))
	if !rc.trace || len(o.lat) == 0 {
		return nil
	}
	m1, v1, err := scrape(sr)
	if err != nil {
		return err
	}
	var traced, plain []float64
	for _, r := range rs {
		switch {
		case !r.ok:
		case r.phases != nil:
			traced = append(traced, r.lat)
		default:
			plain = append(plain, r.lat)
		}
	}
	o.layers["bench.trace_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	o.layers["bench.gen_cpu_ms_per_op"] = 1000 * genCPU / float64(len(rs))
	spanLayers(o, rs)
	scrapeLayers(o, len(rs), m0, m1, v0, v1)
	path := spanPath(rc)
	if err := writeServeSpans(rs, path); err != nil {
		o.setGuardErr(err)
	}
	o.note("trace: ops=%d traced=%d overhead_pct=%.2f spans=%s", len(rs), len(traced), o.layers["bench.trace_overhead_pct"], path)
	return nil
}

type cpuSample struct {
	at  time.Time
	cpu float64
}

// sampleCPU reads a process's CPU time now and then once a second until
// stop is called; stop takes a last reading and returns them all.
func sampleCPU(pid int) (start cpuSample, stop func() []cpuSample) {
	read := func() cpuSample {
		c, _ := procCPUSeconds(pid)
		return cpuSample{time.Now(), c}
	}
	start = read()
	samples := []cpuSample{start}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(time.Second)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				samples = append(samples, read())
			}
		}
	}()
	return start, func() []cpuSample {
		close(done)
		wg.Wait()
		return append(samples, read())
	}
}

// cutWindows assigns each successful request to the window between CPU
// samples in which it completed. The last, partial window is dropped.
func cutWindows(rs []opResult, samples []cpuSample) []window {
	var out []window
	for i := 1; i < len(samples); i++ {
		secs := samples[i].at.Sub(samples[i-1].at).Seconds()
		if secs < 0.5 {
			continue
		}
		w := window{secs: secs, cpu: samples[i].cpu - samples[i-1].cpu}
		for _, r := range rs {
			end := r.start.Add(time.Duration(r.lat * float64(time.Millisecond)))
			if r.ok && !end.Before(samples[i-1].at) && end.Before(samples[i].at) {
				w.ops++
			}
		}
		out = append(out, w)
	}
	return out
}

// tally counts a phase's requests and returns the latencies of those that
// succeeded; a refused (429), failed or wrong reply is a failed op.
func (o *outcome) tally(rs []opResult) []float64 {
	var lat []float64
	for _, r := range rs {
		o.attempted++
		if !r.ok {
			o.fail("%s: %v", r.p.name, r.err)
			continue
		}
		lat = append(lat, r.lat)
	}
	return lat
}

// spanLayers averages, over the traced requests, what each reply's span
// list says about the server's layers; the client's view adds the HTTP
// layer. Reply size is averaged over every successful request.
func spanLayers(o *outcome, rs []opResult) {
	servePhase := map[string]string{}
	for _, l := range compileLayers {
		if l.servePhase != "" {
			servePhase[l.servePhase] = l.name + "_ms"
		}
	}
	sums := map[string]float64{}
	ok, traced, bytes := 0, 0, 0
	for _, r := range rs {
		if !r.ok {
			continue
		}
		ok++
		bytes += r.bytes
		if r.phases == nil {
			continue
		}
		traced++
		for _, sp := range r.phases {
			switch {
			case sp.Name == "request":
				sums["ccserve.http_ms"] += r.lat - sp.DurMS
			case sp.Name == "queue-wait":
				sums["pipeline.queue_wait_ms"] += sp.DurMS
			case strings.HasPrefix(sp.Name, "cache-"):
				sums["pipeline.cache_lookup_ms"] += sp.DurMS
			case sp.Name == "store-read":
				sums["store.read_ms"] += sp.DurMS
			case sp.Name == "store-write":
				sums["store.write_ms"] += sp.DurMS
			case servePhase[sp.Name] != "":
				sums[servePhase[sp.Name]] += sp.DurMS
			}
		}
	}
	for k, v := range sums {
		o.layers[k] = v / float64(traced)
	}
	if ok > 0 {
		o.layers["ccserve.reply_kb"] = float64(bytes) / float64(ok) / 1024
	}
}

// metricsScrape is the part of GET /metrics the ledger uses.
type metricsScrape struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	FuncsRecured uint64 `json:"funcs_recured"`
	FuncsLoaded  uint64 `json:"funcs_loaded"`
}

// varsScrape is the part of GET /debug/vars the ledger uses, with the
// server's age when it was taken.
type varsScrape struct {
	Memstats struct {
		TotalAlloc    uint64  `json:"TotalAlloc"`
		HeapInuse     uint64  `json:"HeapInuse"`
		GCCPUFraction float64 `json:"GCCPUFraction"`
	} `json:"memstats"`
	age float64
}

func scrape(sr *serveRun) (*metricsScrape, *varsScrape, error) {
	var m metricsScrape
	var v varsScrape
	for _, s := range []struct {
		path string
		into any
	}{{"/metrics", &m}, {"/debug/vars", &v}} {
		resp, err := sr.gen.client.Get(sr.sv.base + s.path)
		if err != nil {
			return nil, nil, fmt.Errorf("scrape %s: %w", s.path, err)
		}
		err = json.NewDecoder(resp.Body).Decode(s.into)
		resp.Body.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("scrape %s: %w", s.path, err)
		}
	}
	v.age = time.Since(sr.sv.started).Seconds()
	return &m, &v, nil
}

// scrapeLayers turns the scrapes around the traced phase into per-op
// deltas. GCCPUFraction is a share of the CPU available since the process
// started, so the phase's share is recovered from the two readings and the
// server's age at each.
func scrapeLayers(o *outcome, ops int, m0, m1 *metricsScrape, v0, v1 *varsScrape) {
	hits := float64(m1.Cache.Hits - m0.Cache.Hits)
	misses := float64(m1.Cache.Misses - m0.Cache.Misses)
	if hits+misses > 0 {
		o.layers["pipeline.cache_hit_ratio"] = hits / (hits + misses)
	}
	perOp := func(d uint64) float64 { return float64(d) / float64(ops) }
	o.layers["pipeline.evictions"] = perOp(m1.Cache.Evictions - m0.Cache.Evictions)
	loaded, recured := m1.FuncsLoaded-m0.FuncsLoaded, m1.FuncsRecured-m0.FuncsRecured
	o.layers["store.funcs_loaded"] = perOp(loaded)
	o.layers["store.funcs_recured"] = perOp(recured)
	if loaded+recured > 0 {
		o.layers["store.replay_ratio"] = float64(loaded) / float64(loaded+recured)
	}
	if d := v1.age - v0.age; d > 0 {
		o.layers["ccserve.gc_cpu_pct"] = 100 * (v1.Memstats.GCCPUFraction*v1.age - v0.Memstats.GCCPUFraction*v0.age) / d
	}
	o.layers["ccserve.alloc_kb_per_op"] = perOp(v1.Memstats.TotalAlloc-v0.Memstats.TotalAlloc) / 1024
	o.layers["ccserve.heap_mb"] = float64(v1.Memstats.HeapInuse) / (1 << 20)
}

// writeServeSpans writes each traced request as a root span (the client's
// view) over the span list its reply carried.
func writeServeSpans(rs []opResult, path string) error {
	rec := newRecorder()
	for _, r := range rs {
		if r.start.Before(rec.epoch) {
			rec.epoch = r.start
		}
	}
	for _, r := range rs {
		if r.phases == nil {
			continue
		}
		rec.ops++
		root := len(rec.spans)
		start := r.start.Sub(rec.epoch)
		rec.spans = append(rec.spans, span{name: "request " + r.p.name, start: start,
			end: start + time.Duration(r.lat*float64(time.Millisecond)), parent: -1, op: rec.ops, lane: r.conn})
		stack := []int{root}
		depths := []int{-1}
		for _, sp := range r.phases {
			for len(depths) > 1 && depths[len(depths)-1] >= sp.Depth {
				stack, depths = stack[:len(stack)-1], depths[:len(depths)-1]
			}
			s := start + time.Duration(sp.StartMS*float64(time.Millisecond))
			rec.spans = append(rec.spans, span{name: sp.Name, start: s,
				end: s + time.Duration(sp.DurMS*float64(time.Millisecond)), parent: stack[len(stack)-1], op: rec.ops, lane: r.conn})
			stack, depths = append(stack, len(rec.spans)-1), append(depths, sp.Depth)
		}
	}
	return rec.writeSpans(path)
}

// serveHitWorkload: compile-only requests for the corpus sources, dealt in
// seeded rounds, to a ccserve whose memory cache set-up has primed, so
// every timed request must come back a memory hit with the Stats the
// library compile gives.
func serveHitWorkload(progs []*benchProgram, rc runConfig) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	ref := map[*benchProgram]gocured.Stats{}
	reqs := make([]*request, len(progs))
	for i, p := range progs {
		prog, err := gocured.Compile(p.file, p.src, p.opts)
		if err != nil {
			return nil, fmt.Errorf("reference compile %s: %w", p.name, err)
		}
		ref[p] = prog.Stats()
		reqs[i] = &request{p: p, body: cureBody(p, p.src)}
	}
	conns := runtime.NumCPU()
	// Connections draw from disjoint sets of sources: two identical
	// requests in flight at once would coalesce onto one job instead of
	// each hitting the cache.
	deal := make([]*rounds, conns)
	for c := range deal {
		var set []int
		for i := c; i < len(reqs); i += conns {
			set = append(set, i)
		}
		deal[c] = newRounds(rc.seed, c, set)
	}
	primeNext := atomic.Int64{}
	order := rand.New(rand.NewSource(rc.seed)).Perm(len(reqs))
	priming := true
	newGen := func(base string) *loadgen {
		primeNext.Store(0)
		return &loadgen{
			client: newClient(conns),
			url:    base + "/cure",
			conns:  conns,
			next: func(c int) *request {
				if priming {
					return reqs[order[int(primeNext.Add(1)-1)%len(reqs)]]
				}
				return reqs[deal[c].next()]
			},
			check: func(req *request, rep *reply) error {
				if !priming && rep.Tier != "memory" {
					return fmt.Errorf("tier %q, want memory", rep.Tier)
				}
				if rep.Stats != ref[req.p] {
					return errMismatch
				}
				return nil
			},
		}
	}
	sr, err := startPrimed(rc, func() ([]string, error) { return nil, nil }, newGen,
		func(g *loadgen) error { return primeLoop(g, len(reqs)) })
	if err != nil {
		return nil, err
	}
	o.setup = sr.setup
	priming = false
	if err := measureServe(rc, sr, o); err != nil {
		return nil, err
	}
	o.note("checked: every reply is a memory hit with the library compile's Stats")
	return o, nil
}

// serveEditWorkload: requests for the corpus programs that have an edit
// point, dealt in seeded rounds, each with the one-line edit carrying a fresh
// constant, to a ccserve with an artifact store in a fresh directory.
// Every request misses the memory cache, replays the unedited functions
// from the store, writes one chunk and evicts from the full cache.
func serveEditWorkload(progs []*benchProgram, rc runConfig) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	var editable []*benchProgram
	ref := map[*benchProgram]gocured.Stats{}
	for _, p := range progs {
		if !p.editable() {
			continue
		}
		prog, err := gocured.Compile(p.file, p.edited(0), p.opts)
		if err != nil {
			return nil, fmt.Errorf("reference compile of edited %s: %w", p.name, err)
		}
		ref[p] = prog.Stats()
		editable = append(editable, p)
	}
	if len(editable) == 0 {
		return nil, errors.New("no corpus program has an edit point")
	}
	conns := runtime.NumCPU()
	deal := make([]*rounds, conns)
	for c := range deal {
		deal[c] = newRounds(rc.seed, c, seq(len(editable)))
	}
	var edit atomic.Int64
	base := int64(rc.seed%1000) * 1_000_000
	newGen := func(url string) *loadgen {
		return &loadgen{
			client: newClient(conns),
			url:    url + "/cure",
			conns:  conns,
			next: func(c int) *request {
				p := editable[deal[c].next()]
				return &request{p: p, body: cureBody(p, p.edited(int(base+edit.Add(1))))}
			},
			check: func(req *request, rep *reply) error {
				if rep.Tier == "memory" {
					return errors.New("an edited source hit the memory cache")
				}
				if rep.Stats != ref[req.p] {
					return errMismatch
				}
				return nil
			},
		}
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	args := func() ([]string, error) {
		dir, err := os.MkdirTemp(rc.outDir, "store-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		return []string{"-store-dir", dir}, nil
	}
	sr, err := startPrimed(rc, args, newGen, func(g *loadgen) error { return primeLoop(g, primeEdits) })
	if err != nil {
		return nil, err
	}
	o.setup = sr.setup
	if err := measureServe(rc, sr, o); err != nil {
		return nil, err
	}
	o.note("checked: every reply is a non-memory tier with the Stats of the same edit compiled in set-up")
	return o, nil
}

// rounds deals one connection's choices in shuffled rounds over its set,
// so each program's share of a phase is fixed and only the order depends
// on the seed (and not on how the connections interleave).
type rounds struct {
	rng   *rand.Rand
	set   []int
	queue []int
}

func newRounds(seed int64, conn int, set []int) *rounds {
	return &rounds{rng: rand.New(rand.NewSource(seed*7919 + int64(conn))), set: set}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (r *rounds) next() int {
	if len(r.queue) == 0 {
		r.queue = make([]int, len(r.set))
		for i, j := range r.rng.Perm(len(r.set)) {
			r.queue[i] = r.set[j]
		}
	}
	x := r.queue[0]
	r.queue = r.queue[1:]
	return x
}
