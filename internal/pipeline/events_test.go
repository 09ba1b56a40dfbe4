package pipeline

import (
	"bytes"
	"context"
	"testing"
	"time"

	"gocured"
	"gocured/internal/flight"
)

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus()
	ch, cancel := b.Subscribe(8)
	defer cancel()
	b.Publish(JobEvent{Type: "job_start", Name: "a.c"})
	b.Publish(JobEvent{Type: "job_done", Name: "a.c"})
	ev1 := <-ch
	ev2 := <-ch
	if ev1.Type != "job_start" || ev2.Type != "job_done" {
		t.Fatalf("got %s, %s", ev1.Type, ev2.Type)
	}
	if ev1.Seq == 0 || ev2.Seq != ev1.Seq+1 {
		t.Errorf("seq = %d, %d; want consecutive from 1", ev1.Seq, ev2.Seq)
	}
	if ev1.Time.IsZero() {
		t.Error("event not timestamped")
	}
}

func TestBusSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBus()
	ch, cancel := b.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ { // must never block, even with a full buffer
			b.Publish(JobEvent{Type: "job_start"})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	ev := <-ch
	if ev.Seq != 1 {
		t.Errorf("first buffered event has seq %d, want 1", ev.Seq)
	}
	// The next event (if any) shows the gap where events were dropped.
	select {
	case ev2 := <-ch:
		if ev2.Seq <= ev.Seq {
			t.Errorf("seq went backwards: %d after %d", ev2.Seq, ev.Seq)
		}
	default:
	}
}

func TestBusUnsubscribeClosesChannel(t *testing.T) {
	b := NewBus()
	ch, cancel := b.Subscribe(1)
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Error("channel still open after unsubscribe")
	}
	if n := b.Subscribers(); n != 0 {
		t.Errorf("subscribers = %d after unsubscribe", n)
	}
	b.Publish(JobEvent{Type: "job_start"}) // must not panic
}

// TestRunnerPublishesJobEvents tails the Runner's bus through a trapping
// cured run and expects start, trap, and done events in order.
func TestRunnerPublishesJobEvents(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 1})
	ch, cancel := r.Events().Subscribe(16)
	defer cancel()
	res := r.Do(context.Background(), Job{
		Name: "oob.c", Source: tinyOOB, Run: true, Mode: gocured.ModeCured,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Run == nil || !res.Run.Trapped {
		t.Fatal("cured out-of-bounds program did not trap")
	}
	var types []string
	for len(types) < 3 {
		select {
		case ev := <-ch:
			types = append(types, ev.Type)
			if ev.Type == "trap" && (ev.TrapKind == "" || ev.TrapPos == "") {
				t.Errorf("trap event missing attribution: %+v", ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("saw only %v before timeout", types)
		}
	}
	want := []string{"job_start", "trap", "job_done"}
	for i, w := range want {
		if types[i] != w {
			t.Fatalf("event order %v, want %v", types, want)
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
	if err := flight.WriteTrace(&buf, flight.RequestRings(traces)); err != nil {
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

func TestMetricsBuildInfo(t *testing.T) {
	r := NewRunner(RunnerOptions{Workers: 1})
	m := r.Metrics()
	if m.Build.Version != gocured.Version {
		t.Errorf("build version %q, want %q", m.Build.Version, gocured.Version)
	}
	if m.Build.GoVersion == "" || m.Build.Optimizer != "on" {
		t.Errorf("build info incomplete: %+v", m.Build)
	}
	var buf bytes.Buffer
	WritePrometheus(&buf, m)
	if !bytes.Contains(buf.Bytes(), []byte(`gocured_build_info{version="`+gocured.Version+`"`)) {
		t.Errorf("prometheus output missing gocured_build_info:\n%s", buf.String()[:200])
	}
}
