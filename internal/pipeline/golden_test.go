package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gocured"
	"gocured/internal/store"
	"gocured/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file (run with -update after an intended change)\n--- got ---\n%s",
			path, got)
	}
}

// indentJSON renders v the way ccserve's GET /metrics does.
func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// goldenSnapshot is a hand-built snapshot in which every family and label
// path of the three expositions appears: build info, every counter and
// gauge, shed reasons with an exemplar, trap kinds, client depths, a
// non-nil store and trace buffer, populated histograms with exemplars
// and two phases.
func goldenSnapshot() Metrics {
	lo, mid, hi := logBoundsMS[8], logBoundsMS[40], logBoundsMS[60]
	hist := func(n uint64, trace string) Histogram {
		return Histogram{
			Count: n + 3, SumMS: 41.25, MaxMS: 1e5,
			Buckets: []HistBucket{
				{LeMS: lo, Count: 1, Exemplar: &Exemplar{TraceID: trace + "1", ValueMS: 0.004}},
				{LeMS: mid, Count: n},
				{LeMS: hi, Count: 1, Exemplar: &Exemplar{TraceID: trace + "2", ValueMS: 7.5}},
				{Count: 1, Exemplar: &Exemplar{TraceID: trace + "3", ValueMS: 1e5}},
			},
		}
	}
	return Metrics{
		Build:          BuildInfo{Version: "v-golden", GoVersion: "go-golden", Optimizer: "on"},
		SnapshotUnixMS: 1700000000123,
		UptimeMS:       98765,

		Workers:       4,
		JobsInFlight:  2,
		QueueDepthNow: 3,
		QueueLimit:    16,

		JobsRun:      101,
		JobsFailed:   7,
		JobsPanicked: 1,
		JobsTimedOut: 2,

		Admitted:          95,
		Shed:              6,
		Coalesced:         9,
		ClientQueueDepths: map[string]int{"tenant-b": 1, "tenant-a": 2},
		ShedExemplar:      &Exemplar{TraceID: "00000000000000aa", ValueMS: 1},

		TraceparentMalformed: 3,

		RunsExecuted: 80,
		Traps:        5,
		TrapsByKind:  map[string]uint64{"null": 2, "bounds": 3},

		Cache: CacheStats{Entries: 12, MaxEntries: 256, Hits: 60, Misses: 41, Evictions: 4},

		Store:        &store.Stats{Hits: 30, Misses: 11, Writes: 9, CorruptDropped: 1, Chunks: 40, Bytes: 123456},
		FuncsRecured: 70,
		FuncsLoaded:  30,

		Traces: &trace.BufferStats{Added: 99, Evicted: 3, Dropped: 0, Live: 96, Cap: 1024},

		E2EWall:     hist(5, "e2e000000000000"),
		QueueWait:   hist(4, "qw0000000000000"),
		QueueDepth:  hist(3, "qd0000000000000"),
		CompileWall: hist(2, "cw0000000000000"),
		RunWall:     hist(1, "rw0000000000000"),
		Phases: []PhaseHist{
			{Phase: "infer", Hist: hist(2, "inf000000000000")},
			{Phase: "parse", Hist: Histogram{Count: 1, SumMS: 2, MaxMS: 2, Buckets: []HistBucket{{LeMS: hi, Count: 1}}}},
		},
	}
}

// TestMetricsExpositionGolden pins the three renderings of one snapshot
// byte for byte: JSON (GET /metrics), Prometheus 0.0.4 and OpenMetrics.
func TestMetricsExpositionGolden(t *testing.T) {
	m := goldenSnapshot()
	checkGolden(t, "metrics_snapshot.json", indentJSON(t, m))
	var prom, om bytes.Buffer
	WritePrometheus(&prom, m)
	WriteOpenMetrics(&om, m)
	checkGolden(t, "metrics_snapshot.prom", prom.Bytes())
	checkGolden(t, "metrics_snapshot.om", om.Bytes())
}

// TestMetricsScriptGolden runs a fixed script through one coalescing
// Runner — a compile, a memory hit, a trap, a panic, a timeout in the
// queue, a queue-full shed and a coalesced follower — and pins the
// counter and gauge part of the JSON snapshot it leaves behind.
func TestMetricsScriptGolden(t *testing.T) {
	plug := make(chan struct{})
	r := NewRunner(RunnerOptions{
		Workers:      1,
		QueueDepth:   1,
		CoalesceJobs: true,
		Faults: &Faults{
			OnExecute: panicOn("boom.c").OnExecute,
			ExecGate: func(j Job) <-chan struct{} {
				if j.Name == "plug.c" {
					return plug
				}
				return nil
			},
		},
	})
	ctx := context.Background()
	n := 0
	job := func(name, src string) Job {
		n++
		return Job{Name: name, Source: src, TraceID: fmt.Sprintf("%016x", n)}
	}
	expect := func(what string, res *JobResult, ok bool) {
		t.Helper()
		if (res.Err == nil) != ok {
			t.Fatalf("%s: err = %v", what, res.Err)
		}
	}

	expect("compile", r.Do(ctx, job("a.c", tinyOK)), true)
	hit := r.Do(ctx, job("a.c", tinyOK))
	expect("hit", hit, true)
	if hit.Tier != "memory" {
		t.Fatalf("hit tier = %q", hit.Tier)
	}
	trap := job("oob.c", tinyOOB)
	trap.Run, trap.Mode = true, gocured.ModeCured
	if res := r.Do(ctx, trap); res.Err != nil || res.Run == nil || !res.Run.Trapped {
		t.Fatalf("trap: %+v", res)
	}
	expect("panic", r.Do(ctx, job("boom.c", tinyOK)), false)

	// Plug the one worker; a queued job times out, the next fills the
	// queue, one more sheds, and an identical copy of the queued job
	// coalesces onto it.
	plugDone := make(chan *JobResult, 1)
	go func() { plugDone <- r.Do(ctx, job("plug.c", uniqueSource("golden", 0))) }()
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().JobsInFlight == 1 }, "plug to execute")
	late := job("late.c", uniqueSource("golden", 1))
	late.Timeout = 20 * time.Millisecond
	if res := r.Do(ctx, late); res.Err == nil || !strings.Contains(res.Err.Error(), "timed out") {
		t.Fatalf("timeout: err = %v", res.Err)
	}
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().QueueDepthNow == 0 }, "timed-out job to leave the queue")
	queued := job("queued.c", uniqueSource("golden", 2))
	queuedDone := make(chan *JobResult, 2)
	go func() { queuedDone <- r.Do(ctx, queued) }()
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().QueueDepthNow == 1 }, "filler to queue")
	var shed *ShedError
	if res := r.Do(ctx, job("shed.c", uniqueSource("golden", 3))); !errors.As(res.Err, &shed) {
		t.Fatalf("shed: err = %v", res.Err)
	}
	follower := queued
	follower.TraceID = job("", "").TraceID
	go func() { queuedDone <- r.Do(ctx, follower) }()
	waitCond(t, 5*time.Second, func() bool { return r.Metrics().Coalesced == 1 }, "follower to join")
	close(plug)
	expect("plug", <-plugDone, true)
	expect("queued", <-queuedDone, true)
	expect("follower", <-queuedDone, true)
	waitCond(t, 5*time.Second, func() bool {
		m := r.Metrics()
		return m.JobsInFlight == 0 && m.QueueDepthNow == 0
	}, "gauges to settle")

	var snap map[string]any
	if err := json.Unmarshal(indentJSON(t, r.Metrics()), &snap); err != nil {
		t.Fatal(err)
	}
	// Keep counters and gauges only: timing-dependent histograms, clocks
	// and the toolchain version vary from run to run.
	for _, k := range []string{"build", "snapshot_unix_ms", "uptime_ms",
		"e2e_wall", "queue_wait", "queue_depth", "compile_wall", "run_wall", "phases"} {
		delete(snap, k)
	}
	checkGolden(t, "metrics_script.json", indentJSON(t, snap))
}
