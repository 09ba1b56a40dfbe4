package pipeline

import (
	"context"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"gocured"
	"gocured/internal/corpus"
)

const tinyOK = `
extern int printf(char *fmt, ...);
int main(void) { printf("ok\n"); return 0; }
`

const tinyLoop = `
int main(void) { for (;;) {} return 0; }
`

const tinyOOB = `
int main(void) {
    int a[3];
    int i, t = 0;
    for (i = 0; i <= 3; i++) t += a[i];
    return t;
}
`

// shadowMemBudget bounds the shadow-memory (purify/valgrind) leg of
// TestRunnerCorpus: programs are admitted cheapest-first until their
// combined raw memory-access count (a deterministic counter) reaches the
// budget. The shadow policies cost real wall time per simulated access
// (roughly 20µs/access for both modes together on a slow box), so the
// budget keeps the sweep to a few minutes no matter how the corpus grows.
// Today it admits the whole corpus (~22M accesses at SCALE=1).
const shadowMemBudget = 32_000_000

// TestRunnerCorpus cures and runs every corpus program through the Runner
// under raw and cured (default scale: no traps, WantStdout agreement), and
// under the Purify/Valgrind shadow policies at SCALE=1 for as many
// programs as fit shadowMemBudget. It then repeats the whole batch to
// demand 100% cache hits. The shadow leg is skipped in -short mode.
func TestRunnerCorpus(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 4})
	ctx := context.Background()
	jobs := CorpusJobs([]gocured.Mode{gocured.ModeRaw, gocured.ModeCured}, 0)
	extraRuns := 0 // probe executions, counted by the Runner's metrics too
	if !testing.Short() {
		// Probe every program raw at SCALE=1 (cheap) to learn its access
		// count, then shadow-run the cheapest programs within budget.
		probe := CorpusJobs([]gocured.Mode{gocured.ModeRaw}, 1)
		probeRes := r.DoAll(ctx, probe)
		order := make([]int, len(probe))
		for i := range order {
			order[i] = i
			if probeRes[i].Err != nil {
				t.Fatalf("probe %s: %v", probe[i].Name, probeRes[i].Err)
			}
		}
		sort.Slice(order, func(a, b int) bool {
			return probeRes[order[a]].Run.MemAccesses < probeRes[order[b]].Run.MemAccesses
		})
		var mem uint64
		var skipped []string
		for _, i := range order {
			mem += probeRes[i].Run.MemAccesses
			if mem > shadowMemBudget {
				skipped = append(skipped, probe[i].Name)
				continue
			}
			for _, mode := range []gocured.Mode{gocured.ModePurify, gocured.ModeValgrind} {
				j := probe[i]
				j.Mode = mode
				jobs = append(jobs, j)
			}
		}
		extraRuns = len(probe)
		if len(skipped) > 0 {
			t.Logf("shadow sweep covers %d/%d programs within the %d-access budget; skipped heavyweights: %v",
				len(probe)-len(skipped), len(probe), shadowMemBudget, skipped)
		}
	}

	first := r.DoAll(ctx, jobs)
	for i, res := range first {
		job := jobs[i]
		if res.Err != nil {
			t.Fatalf("%s/%s: %v", job.Name, job.Mode, res.Err)
		}
		if res.Run == nil {
			t.Fatalf("%s/%s: no run result", job.Name, job.Mode)
		}
		if res.Run.Trapped {
			t.Errorf("%s/%s trapped: %s", job.Name, job.Mode, res.Run.TrapMessage)
		}
		p := corpus.ByName(strings.TrimSuffix(job.Name, ".c"))
		if p != nil && p.WantStdout != "" &&
			(job.Mode == gocured.ModeRaw || job.Mode == gocured.ModeCured) &&
			res.Run.Stdout != p.WantStdout {
			t.Errorf("%s/%s stdout = %q, want %q", job.Name, job.Mode, res.Run.Stdout, p.WantStdout)
		}
	}
	m1 := r.Metrics()
	if m1.Cache.Misses == 0 || m1.Cache.Hits == 0 {
		t.Fatalf("first pass: expected both misses and mode-sharing hits, got %+v", m1.Cache)
	}
	if m1.RunsExecuted != uint64(len(jobs)+extraRuns) {
		t.Errorf("RunsExecuted = %d, want %d", m1.RunsExecuted, len(jobs)+extraRuns)
	}

	// Second pass: identical sources must all be served from the cache.
	// Compile-only (re-executing the interpreter would double the test's
	// wall time without exercising the cache any further).
	again := make([]Job, len(jobs))
	copy(again, jobs)
	for i := range again {
		again[i].Run = false
	}
	second := r.DoAll(ctx, again)
	for i, res := range second {
		if res.Err != nil {
			t.Fatalf("second pass %s: %v", again[i].Name, res.Err)
		}
		if !res.CacheHit {
			t.Errorf("second pass %s/%s missed the cache", again[i].Name, jobs[i].Mode)
		}
	}
	m2 := r.Metrics()
	if m2.Cache.Misses != m1.Cache.Misses {
		t.Errorf("second pass recompiled: misses %d -> %d", m1.Cache.Misses, m2.Cache.Misses)
	}
	if got, want := m2.Cache.Hits-m1.Cache.Hits, uint64(len(jobs)); got != want {
		t.Errorf("second pass hits = %d, want %d", got, want)
	}
}

// TestRunnerParallelSpeedup checks the headline property: with 4+ workers,
// curing the corpus is substantially faster than the 1-worker sequential
// path. Wall-clock assertions need real parallelism, so single/dual-core
// machines skip (the 1/2/4/8-worker benchmarks in bench_test.go measure
// the same thing without asserting).
func TestRunnerParallelSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful speedup assertion, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	jobs := CorpusCompileJobs(0)
	measure := func(workers int) time.Duration {
		// Caching disabled so both passes do the full compile work.
		r := NewRunner(RunnerOptions{Workers: workers, CacheEntries: -1})
		start := time.Now()
		for _, res := range r.DoAll(context.Background(), jobs) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		return time.Since(start)
	}
	seq := measure(1)
	par := measure(4)
	t.Logf("sequential %v, 4 workers %v (%.2fx)", seq, par, float64(seq)/float64(par))
	if par > seq*2/3 {
		t.Errorf("4-worker corpus cure not faster than sequential: %v vs %v", par, seq)
	}
}

// TestCacheCoalescing launches many concurrent identical jobs and demands
// the cache compile the source exactly once.
func TestCacheCoalescing(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 8})
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{Name: "tiny.c", Source: tinyOK, Run: true, Mode: gocured.ModeCured}
	}
	for _, res := range r.DoAll(context.Background(), jobs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Run.Stdout != "ok\n" {
			t.Errorf("stdout = %q", res.Run.Stdout)
		}
	}
	if m := r.Metrics(); m.Cache.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single-flight coalescing)", m.Cache.Misses)
	}
}

// TestCacheEviction bounds the cache and checks LRU eviction with counters.
func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 4; i++ {
		src := fmt.Sprintf("int main(void) { return %d; }", i)
		if _, lk, err := c.GetOrCompile("v.c", src, gocured.Options{}); err != nil || lk.Hit {
			t.Fatalf("compile %d: lookup=%+v err=%v", i, lk, err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 2 {
		t.Errorf("stats = %+v, want 2 entries and 2 evictions", s)
	}
	// Oldest entries are gone; newest are hits.
	if _, lk, _ := c.GetOrCompile("v.c", "int main(void) { return 3; }", gocured.Options{}); !lk.Hit || lk.Tier != "memory" {
		t.Error("most recent entry was evicted")
	}
	if _, lk, _ := c.GetOrCompile("v.c", "int main(void) { return 0; }", gocured.Options{}); lk.Hit {
		t.Error("oldest entry should have been evicted")
	}
}

// TestCacheKeyDiscriminates checks every key component matters.
func TestCacheKeyDiscriminates(t *testing.T) {
	base := CacheKey("a.c", tinyOK, gocured.Options{})
	if CacheKey("b.c", tinyOK, gocured.Options{}) == base {
		t.Error("filename not in key")
	}
	if CacheKey("a.c", tinyOK+" ", gocured.Options{}) == base {
		t.Error("source not in key")
	}
	if CacheKey("a.c", tinyOK, gocured.Options{NoRTTI: true}) == base {
		t.Error("options not in key")
	}
	if CacheKey("a.c", tinyOK, gocured.Options{}) != base {
		t.Error("key not deterministic")
	}
}

// TestCacheKeyBytesPinned pins the exact key bytes: the key addresses
// both cache tiers, so a change to how it is computed must not change
// what it is.
func TestCacheKeyBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		opts      gocured.Options
		want      string
	}{
		{"a.c", "int main(void) { return 0; }\n", gocured.Options{},
			"adb01c7d2f933980af0e08f2b6a59d9f44911062f27bf2f091726977704bffbe"},
		{"bind.c", "/* \u00e9 */\nint f(int *p) { return p[1]; }\n", gocured.Options{NoRTTI: true, NoOptimize: true},
			"ce7bfc4783a9fdbbbb899d44cb575232668a2faafe0af964b44b240405b6ff41"},
		{"", "", gocured.Options{ForceSplitAll: true, TrustBadCasts: true, NoPhysicalSubtyping: true},
			"7886a7d0a1920510cde0a75b014c782198bcc49c780d1438a3312b49850765cd"},
	} {
		k := CacheKey(tc.name, tc.src, tc.opts)
		if got := hex.EncodeToString(k[:]); got != tc.want {
			t.Errorf("CacheKey(%q, %d-byte source, %+v) = %s, want %s", tc.name, len(tc.src), tc.opts, got, tc.want)
		}
	}
}

// panicOn returns a fault harness whose OnExecute hook panics for jobs
// with the given name, inside the Runner's per-job panic isolation.
func panicOn(name string) *Faults {
	return &Faults{OnExecute: func(j Job) {
		if j.Name == name {
			panic("injected test panic")
		}
	}}
}

// TestPanicIsolation injects a panicking job into a batch and demands the
// batch completes with the panic contained in that job's result.
func TestPanicIsolation(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 2, Faults: panicOn("boom.c")})
	jobs := []Job{
		{Name: "ok1.c", Source: tinyOK, Run: true, Mode: gocured.ModeCured},
		{Name: "boom.c", Source: tinyOK},
		{Name: "ok2.c", Source: tinyOK, Run: true, Mode: gocured.ModeRaw},
	}
	results := r.DoAll(context.Background(), jobs)
	if err := results[1].Err; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job error = %v, want panic report", err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("%s failed alongside the panicking job: %v", jobs[i].Name, results[i].Err)
		}
	}
	m := r.Metrics()
	if m.JobsPanicked != 1 || m.JobsFailed != 1 {
		t.Errorf("metrics = panicked %d failed %d, want 1/1", m.JobsPanicked, m.JobsFailed)
	}
}

// TestJobTimeout bounds a divergent program by wall clock; the step limit
// acts as the backstop that eventually frees the worker.
func TestJobTimeout(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 1})
	res := r.Do(context.Background(), Job{
		Name:       "loop.c",
		Source:     tinyLoop,
		Run:        true,
		Mode:       gocured.ModeRaw,
		RunOptions: gocured.RunOptions{StepLimit: 200_000_000},
		Timeout:    20 * time.Millisecond,
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", res.Err)
	}
	if m := r.Metrics(); m.JobsTimedOut != 1 {
		t.Errorf("JobsTimedOut = %d, want 1", m.JobsTimedOut)
	}
}

// TestDefaultStepLimit checks the Runner-level step bound converts runaway
// programs into timeout traps rather than hung workers.
func TestDefaultStepLimit(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 1, DefaultStepLimit: 100_000})
	res := r.Do(context.Background(), Job{Name: "loop.c", Source: tinyLoop, Run: true, Mode: gocured.ModeRaw})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Run.Trapped || res.Run.TrapKind != "timeout" {
		t.Fatalf("run = trapped %v kind %q, want timeout trap", res.Run.Trapped, res.Run.TrapKind)
	}
}

// TestContextCancellation checks Do respects an already-cancelled context.
func TestContextCancellation(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res := r.Do(ctx, Job{Name: "t.c", Source: tinyOK}); res.Err == nil {
		t.Fatal("expected context error")
	}
}

// TestMetricsObservability runs a trapping job and checks the counters and
// histograms a dashboard would read.
func TestMetricsObservability(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 2})
	for _, job := range []Job{
		{Name: "oob.c", Source: tinyOOB, Run: true, Mode: gocured.ModeCured},
		{Name: "ok.c", Source: tinyOK, Run: true, Mode: gocured.ModeCured},
		{Name: "bad.c", Source: "int main( {", Run: true, Mode: gocured.ModeRaw},
	} {
		r.Do(context.Background(), job)
	}
	m := r.Metrics()
	if m.JobsRun != 3 || m.JobsFailed != 1 {
		t.Errorf("jobs run/failed = %d/%d, want 3/1", m.JobsRun, m.JobsFailed)
	}
	if m.Traps != 1 || m.TrapsByKind["bounds"] != 1 {
		t.Errorf("traps = %d (%v), want one bounds trap", m.Traps, m.TrapsByKind)
	}
	if m.CompileWall.Count != 2 {
		t.Errorf("compile histogram count = %d, want 2", m.CompileWall.Count)
	}
	if m.RunWall.Count != 2 {
		t.Errorf("run histogram count = %d, want 2", m.RunWall.Count)
	}
	if m.CompileWall.MeanMS() < 0 {
		t.Error("negative mean")
	}
}

// TestTimelineStoreSpanClamp pins the synthetic store-span geometry: the
// aggregated store I/O wall time sums across concurrent inference
// goroutines and can exceed the compile window, but the spans in the raw
// Phases list must stay inside [compile start, compile end] — never a
// negative start overlapping queue-wait.
func TestTimelineStoreSpanClamp(t *testing.T) {
	prog, err := gocured.Compile("a.c", tinyOK, gocured.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := &Compiled{
		Program:      prog,
		StoreReads:   4,
		StoreWrites:  2,
		StoreReadMS:  25, // 25 + 9 = 34ms of summed I/O in a 10ms window
		StoreWriteMS: 9,
	}
	spans := appendCompileSpans(nil, 2, 10, "disk", fresh)
	cs, ce := 2.0, 12.0
	found := 0
	for _, sp := range spans {
		if sp.Name != "store-read" && sp.Name != "store-write" {
			continue
		}
		found++
		if sp.StartMS < cs || sp.StartMS+sp.DurMS > ce+1e-9 || sp.DurMS < 0 {
			t.Errorf("%s span [%v, %v+%v] escapes compile window [%v, %v]",
				sp.Name, sp.StartMS, sp.StartMS, sp.DurMS, cs, ce)
		}
	}
	if found != 2 {
		t.Errorf("found %d store spans, want 2", found)
	}
}
