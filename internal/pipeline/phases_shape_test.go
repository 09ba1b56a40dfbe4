package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"gocured"
	"gocured/internal/flight"
)

// shapeOf renders a job's Phases as its (name, depth) sequence.
func shapeOf(res *JobResult) string {
	var b strings.Builder
	for i, sp := range res.Phases {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s/%d", sp.Name, sp.Depth)
	}
	return b.String()
}

// TestPhasesShape pins the (name, depth) sequence of the /cure phases list
// on every job path. perfbench maps these span names to its ledger layers,
// so a change here is a change to the benchmark's vocabulary.
func TestPhasesShape(t *testing.T) {
	const twoFuncs = `
int twice(int x) { return x + x; }
int main(void) { return twice(2) - 4; }
`
	ctx := context.Background()
	r := NewRunner(RunnerOptions{Workers: 1, Faults: &Faults{OnExecute: func(j Job) {
		if j.Name == "boom.c" {
			panic("injected test panic")
		}
	}}})
	dir := t.TempDir()
	cold := NewRunner(RunnerOptions{Workers: 1, CacheEntries: -1, Store: openArtifacts(t, dir)})
	if res := cold.Do(ctx, Job{Name: "store.c", Source: twoFuncs}); res.Err != nil {
		t.Fatal(res.Err)
	}
	warm := NewRunner(RunnerOptions{Workers: 1, CacheEntries: -1, Store: openArtifacts(t, dir)})

	const frontend = "frontend-raw/2 parse/2 sema/2 lower/2 infer/2 instrument/2 optimize/2"
	cases := []struct {
		path string
		r    *Runner
		job  Job
		tier string
		want string
	}{
		{"compile", r, Job{Name: "a.c", Source: tinyOK}, "compile",
			"request/0 queue-wait/1 compile/1 cache-compile/2 " + frontend},
		{"memory-hit", r, Job{Name: "a.c", Source: tinyOK}, "memory",
			"request/0 queue-wait/1 compile/1 cache-memory/2"},
		{"disk", warm, Job{Name: "store.c", Source: twoFuncs}, "disk",
			"request/0 queue-wait/1 compile/1 cache-disk/2 " + frontend + " store-read/2"},
		{"run", r, Job{Name: "a.c", Source: tinyOK, Run: true, Mode: gocured.ModeCured}, "memory",
			"request/0 queue-wait/1 compile/1 cache-memory/2 run/1"},
		{"trap", r, Job{Name: "oob.c", Source: tinyOOB, Run: true, Mode: gocured.ModeCured}, "compile",
			"request/0 queue-wait/1 compile/1 cache-compile/2 " + frontend + " run/1"},
		{"compile-error", r, Job{Name: "bad.c", Source: "int main(void) { return undeclared; }"}, "",
			"request/0 queue-wait/1 compile/1 cache-compile/2"},
		{"panic", r, Job{Name: "boom.c", Source: tinyOK}, "",
			"request/0 queue-wait/1"},
	}
	for _, tc := range cases {
		res := tc.r.Do(ctx, tc.job)
		if res.Tier != tc.tier {
			t.Errorf("%s: tier = %q, want %q (err %v)", tc.path, res.Tier, tc.tier, res.Err)
		}
		if got := shapeOf(res); got != tc.want {
			t.Errorf("%s: phases\n got %s\nwant %s", tc.path, got, tc.want)
		}
	}
}

// TestJobSpansAreTheClock runs a job down every path — compile, memory
// hit, run, trap, compile error, panic and a coalesced follower — and
// checks the request span list is the one timing record: every job's
// Phases exports as a valid trace, the e2e/compile/run histograms hold
// exactly the matching spans, and the per-request pipeline.json ccbench
// builds from the trace buffer validates.
func TestJobSpansAreTheClock(t *testing.T) {
	gate := make(chan struct{})
	faults := panicOn("boom.c")
	faults.ExecGate = func(j Job) <-chan struct{} {
		if j.Name == "slow.c" {
			return gate
		}
		return nil
	}
	r := NewRunner(RunnerOptions{Workers: 2, CoalesceJobs: true, Faults: faults})
	ctx := context.Background()
	run := func(name, src string) Job {
		return Job{Name: name, Source: src, Run: true, Mode: gocured.ModeCured}
	}
	var results []*JobResult
	for _, job := range []Job{
		{Name: "a.c", Source: tinyOK},
		{Name: "a.c", Source: tinyOK},
		run("a.c", tinyOK),
		run("oob.c", tinyOOB),
		{Name: "bad.c", Source: "int main(void) { return undeclared; }"},
		{Name: "boom.c", Source: tinyOK},
	} {
		results = append(results, r.Do(ctx, job))
	}
	// A leader held at the gate and a follower that coalesces onto it.
	slow := run("slow.c", uniqueSource("slow", 1))
	done := make(chan *JobResult, 2)
	go func() { done <- r.Do(ctx, slow) }()
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().JobsInFlight == 1 }, "leader to execute")
	go func() { done <- r.Do(ctx, slow) }()
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().Coalesced == 1 }, "follower to join")
	close(gate)
	results = append(results, <-done, <-done)

	tiers := map[string]int{}
	var e2e, compile, runs Histogram
	for _, res := range results {
		var buf bytes.Buffer
		if err := flight.WriteSpanTrace(&buf, res.Name, res.Phases, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := flight.ValidateTrace(buf.Bytes()); err != nil {
			t.Errorf("%s (tier %q): phases do not validate: %v", res.Name, res.Tier, err)
		}
		tiers[res.Tier]++
		if res.Tier == "coalesced" {
			continue // shares its leader's Phases; observed once, by the leader
		}
		for _, sp := range res.Phases {
			switch {
			case sp.Depth == 0 && sp.Name == "request":
				e2e.Count++
				e2e.SumMS += sp.DurMS
			case res.Err != nil:
			case sp.Depth == 1 && sp.Name == "compile" && !res.CacheHit:
				compile.Count++
				compile.SumMS += sp.DurMS
			case sp.Depth == 1 && sp.Name == "run":
				runs.Count++
				runs.SumMS += sp.DurMS
			}
		}
	}
	// compile: a.c, oob.c, slow.c; memory: the hit and the run of a.c;
	// the compile error and the panic leave no tier.
	if tiers["compile"] != 3 || tiers["memory"] != 2 || tiers["coalesced"] != 1 || tiers[""] != 2 {
		t.Fatalf("tiers = %v", tiers)
	}
	if e2e.Count != 7 || compile.Count != 3 || runs.Count != 3 {
		t.Fatalf("span counts e2e/compile/run = %d/%d/%d, want 7/3/3", e2e.Count, compile.Count, runs.Count)
	}
	m := r.Metrics()
	for _, c := range []struct {
		name      string
		got, want Histogram
	}{{"e2e", m.E2EWall, e2e}, {"compile", m.CompileWall, compile}, {"run", m.RunWall, runs}} {
		if c.got.Count != c.want.Count || c.got.SumMS != c.want.SumMS {
			t.Errorf("%s histogram count/sum = %d/%v, spans say %d/%v",
				c.name, c.got.Count, c.got.SumMS, c.want.Count, c.want.SumMS)
		}
	}

	// pipeline.json as ccbench -trace-dir writes it: one track per request.
	traces := r.Traces().Recent(0)
	if len(traces) != len(results) {
		t.Fatalf("trace buffer holds %d traces, want %d", len(traces), len(results))
	}
	var buf bytes.Buffer
	if err := flight.WriteRequestTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	if _, err := flight.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("pipeline trace invalid: %v", err)
	}
	for _, name := range []string{"queue-wait", "cache-memory", "parse", "run"} {
		if !bytes.Contains(buf.Bytes(), []byte(`"name":"`+name+`"`)) {
			t.Errorf("pipeline trace has no %q span", name)
		}
	}
}
