package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"gocured"
)

func TestHistogramMeanMSZeroCount(t *testing.T) {
	var h Histogram
	if got := h.MeanMS(); got != 0 {
		t.Errorf("empty histogram MeanMS = %v, want 0 (no division by zero)", got)
	}
	h = Histogram{Count: 4, SumMS: 10}
	if got := h.MeanMS(); got != 2.5 {
		t.Errorf("MeanMS = %v, want 2.5", got)
	}
}

// TestLogBucketBoundaries is the golden test for the bucket scheme: bounds
// grow by 2^(1/4) from 1µs, upper bounds are inclusive, and values above
// the last bound land in the overflow bucket.
func TestLogBucketBoundaries(t *testing.T) {
	if logBoundsMS[0] != 0.001 {
		t.Fatalf("first bound = %v, want 0.001", logBoundsMS[0])
	}
	// Four sub-buckets per octave: bound[i+4] = 2*bound[i], exactly (the
	// bounds are computed, not accumulated, so no drift).
	for i := 0; i+4 < logBucketCount; i += 4 {
		if got, want := logBoundsMS[i+4], 2*logBoundsMS[i]; math.Abs(got-want) > want*1e-12 {
			t.Fatalf("bound[%d] = %v, want 2*bound[%d] = %v", i+4, got, i, want)
		}
	}
	// Whole-octave bounds are exact: bound[4k] = 0.001 * 2^k.
	if got := logBoundsMS[40]; got != 0.001*math.Exp2(10) {
		t.Errorf("bound[40] = %v, want 1.024", got)
	}
	// The table covers sub-µs to over a minute.
	if last := logBoundsMS[logBucketCount-1]; last < 60_000 {
		t.Errorf("last bound = %vms, want > 60s", last)
	}

	for _, tc := range []struct {
		ms   float64
		want int
	}{
		{0, 0},
		{-1, 0}, // clamped by ObserveMS before lookup, but be defensive
		{0.0005, 0},
		{0.001, 0}, // inclusive: exactly on a bound lands in that bucket
		{0.0010001, 1},
		{logBoundsMS[17], 17},
		{logBoundsMS[17] * 1.0001, 18},
		{logBoundsMS[logBucketCount-1], logBucketCount - 1},
		{logBoundsMS[logBucketCount-1] + 1, logBucketCount}, // overflow
		{1e12, logBucketCount},
	} {
		if got := logBucketFor(tc.ms); got != tc.want {
			t.Errorf("logBucketFor(%v) = %d, want %d", tc.ms, got, tc.want)
		}
	}
	// Exhaustive boundary sweep: every bound maps to its own bucket, and
	// nudging above it maps to the next.
	for i, b := range logBoundsMS {
		if got := logBucketFor(b); got != i {
			t.Fatalf("logBucketFor(bound[%d]=%v) = %d", i, b, got)
		}
		above := b * (1 + 1e-9)
		if got := logBucketFor(above); got != i+1 {
			t.Fatalf("logBucketFor(just above bound[%d]) = %d, want %d", i, got, i+1)
		}
	}
}

func TestLogHistObserveAndSnapshot(t *testing.T) {
	var h LogHist
	h.Observe(500*time.Microsecond, "aaaaaaaaaaaaaaa1") // 0.5ms
	h.Observe(3*time.Millisecond, "")
	h.Observe(100*time.Second, "aaaaaaaaaaaaaaa2") // past the ~67s last bound
	s := h.Snapshot()
	if s.Count != 3 || s.MaxMS != 100000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("buckets = %+v, want 3 non-empty", s.Buckets)
	}
	if s.Buckets[2].LeMS != 0 {
		t.Errorf("overflow bucket LeMS = %v, want 0", s.Buckets[2].LeMS)
	}
	if s.Buckets[0].Exemplar == nil || s.Buckets[0].Exemplar.TraceID != "aaaaaaaaaaaaaaa1" {
		t.Errorf("bucket 0 exemplar = %+v", s.Buckets[0].Exemplar)
	}
	if s.Buckets[1].Exemplar != nil {
		t.Errorf("no-trace-ID observation grew an exemplar: %+v", s.Buckets[1].Exemplar)
	}
	if s.Buckets[2].Exemplar == nil || s.Buckets[2].Exemplar.ValueMS != 100000 {
		t.Errorf("overflow exemplar = %+v", s.Buckets[2].Exemplar)
	}
}

// TestLogHistExemplarRetention pins the last-per-bucket policy: a newer
// observation with a trace ID replaces the bucket's exemplar; one without
// a trace ID leaves it alone.
func TestLogHistExemplarRetention(t *testing.T) {
	var h LogHist
	h.ObserveMS(1.0, "aaaaaaaaaaaaaaa1")
	h.ObserveMS(1.0, "aaaaaaaaaaaaaaa2")
	h.ObserveMS(1.0, "") // must not clear the exemplar
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].Count != 3 {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	ex := s.Buckets[0].Exemplar
	if ex == nil || ex.TraceID != "aaaaaaaaaaaaaaa2" || ex.ValueMS != 1.0 {
		t.Errorf("exemplar = %+v, want last trace-carrying observation", ex)
	}
}

// TestLogHistExemplarStaleness pins the aging policy: an exemplar older
// than DefaultExemplarMaxAge no longer appears in snapshots (the trace it links to
// is long evicted), while the bucket's counts are untouched.
func TestLogHistExemplarStaleness(t *testing.T) {
	clock := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	var h LogHist
	h.now = func() time.Time { return clock }

	h.ObserveMS(1.0, "aaaaaaaaaaaaaaa1")
	if s := h.Snapshot(); s.Buckets[0].Exemplar == nil {
		t.Fatal("fresh exemplar missing")
	}

	// Just inside the default max age: still present.
	clock = clock.Add(DefaultExemplarMaxAge - time.Second)
	if s := h.Snapshot(); s.Buckets[0].Exemplar == nil {
		t.Fatal("exemplar aged out before DefaultExemplarMaxAge")
	}

	// Past it: gone, counts intact.
	clock = clock.Add(2 * time.Second)
	s := h.Snapshot()
	if s.Buckets[0].Exemplar != nil {
		t.Fatalf("stale exemplar survived: %+v", s.Buckets[0].Exemplar)
	}
	if s.Buckets[0].Count != 1 || s.Count != 1 {
		t.Fatalf("aging touched the counts: %+v", s)
	}

	// A fresh trace-carrying observation repopulates the bucket.
	h.ObserveMS(1.0, "aaaaaaaaaaaaaaa2")
	if s := h.Snapshot(); s.Buckets[0].Exemplar == nil || s.Buckets[0].Exemplar.TraceID != "aaaaaaaaaaaaaaa2" {
		t.Fatalf("fresh exemplar missing after staleness: %+v", s.Buckets[0])
	}
}

func TestSnapshotTimestamps(t *testing.T) {
	m := newMetrics()
	before := time.Now().UnixMilli()
	s := m.snapshot(1, CacheStats{})
	after := time.Now().UnixMilli()
	if s.SnapshotUnixMS < before || s.SnapshotUnixMS > after {
		t.Fatalf("snapshot_unix_ms = %d, want within [%d, %d]", s.SnapshotUnixMS, before, after)
	}
	if s.UptimeMS < 0 {
		t.Fatalf("uptime_ms = %d, want >= 0", s.UptimeMS)
	}
	m.start = m.start.Add(-time.Minute)
	if s := m.snapshot(1, CacheStats{}); s.UptimeMS < time.Minute.Milliseconds() {
		t.Fatalf("uptime_ms = %d, want >= 60000 after aging start", s.UptimeMS)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h LogHist
	for i := 0; i < 90; i++ {
		h.ObserveMS(1.0, "")
	}
	for i := 0; i < 10; i++ {
		h.ObserveMS(100.0, "")
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 > 1.01 {
		t.Errorf("p50 = %v, want <= ~1ms", p50)
	}
	// p99 falls in the bucket holding 100ms: within one bucket's relative
	// width (2^1/4 ≈ 1.19) of the true value.
	if p99 := s.Quantile(0.99); p99 < 100/1.19 || p99 > 100 {
		t.Errorf("p99 = %v, want within one bucket of 100ms", p99)
	}
	if p100 := s.Quantile(1); p100 != s.MaxMS {
		t.Errorf("p100 = %v, want MaxMS %v", p100, s.MaxMS)
	}
	if got := (Histogram{}).Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
}

// TestHistogramQuantileBimodal pins interpolation against sparse
// snapshots: with counts only at 1ms and 1000ms, a quantile landing in the
// 1000ms bucket must interpolate from that bucket's own lower bound
// (~1000/2^0.25 ≈ 841ms), not from the previous non-empty bucket way down
// at 1ms — the latter understates tail latency by 4x and would let an SLO
// gate pass on a blown p99.
func TestHistogramQuantileBimodal(t *testing.T) {
	var h LogHist
	for i := 0; i < 50; i++ {
		h.ObserveMS(1.0, "")
	}
	for i := 0; i < 50; i++ {
		h.ObserveMS(1000.0, "")
	}
	s := h.Snapshot()
	for _, q := range []float64{0.60, 0.99} {
		if v := s.Quantile(q); v < 1000/1.19 || v > 1000 {
			t.Errorf("p%v = %v, want within one bucket of 1000ms", q*100, v)
		}
	}
}

// TestLogHistConcurrentSnapshot hammers one LogHist from many goroutines
// while snapshots are taken and read concurrently; run under -race it
// checks the locking discipline, and the final tally checks no observation
// or count is lost.
func TestLogHistConcurrentSnapshot(t *testing.T) {
	var h LogHist
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveMS(float64(i%100)+0.5, fmt.Sprintf("%08d%08d", g, i))
				if i%50 == 0 {
					_ = h.Snapshot().Quantile(0.99)
				}
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var sum uint64
	for _, b := range s.Buckets {
		sum += b.Count
	}
	if sum != s.Count {
		t.Fatalf("bucket sum = %d, want %d", sum, s.Count)
	}
}

// TestWritePrometheusFormat unit-tests the text renderer on a hand-built
// snapshot: cumulative buckets over the canonical log bounds, per-phase
// labels, sorted trap-kind labels, and counter/gauge samples. The classic
// 0.0.4 dialect must stay exemplar-free (its parser rejects anything after
// a sample value); exemplars are covered by TestWriteOpenMetricsFormat.
func TestWritePrometheusFormat(t *testing.T) {
	lo, hi := logBoundsMS[8], logBoundsMS[60]
	m := promTestMetrics()
	var b strings.Builder
	WritePrometheus(&b, m)
	out := b.String()

	for _, want := range []string{
		"# TYPE gocured_workers gauge\ngocured_workers 4\n",
		"# TYPE gocured_jobs_run_total counter\ngocured_jobs_run_total 7\n",
		"gocured_traps_total 2\n",
		// Label values sort: bounds before null.
		"gocured_traps_by_kind_total{kind=\"bounds\"} 1\ngocured_traps_by_kind_total{kind=\"null\"} 1\n",
		"gocured_cache_hits_total 2\n",
		"gocured_traces_dropped_total 0\n",
		// First bound always renders (cumulative 0 here), populated buckets
		// render with running cumulative counts; no exemplar suffixes in the
		// 0.0.4 dialect even though the snapshot carries them.
		fmt.Sprintf("gocured_compile_wall_ms_bucket{le=%q} 0\n", fmtFloat(logBoundsMS[0])),
		fmt.Sprintf("gocured_compile_wall_ms_bucket{le=%q} 1\n", fmtFloat(lo)),
		fmt.Sprintf("gocured_compile_wall_ms_bucket{le=%q} 3\n", fmtFloat(hi)),
		fmt.Sprintf("gocured_compile_wall_ms_bucket{le=%q} 3\n", fmtFloat(logBoundsMS[logBucketCount-1])),
		"gocured_compile_wall_ms_bucket{le=\"+Inf\"} 4\n",
		"gocured_compile_wall_ms_sum 12.5\n",
		"gocured_compile_wall_ms_count 4\n",
		// The empty families still render completely.
		"gocured_run_wall_ms_bucket{le=\"+Inf\"} 0\n",
		"gocured_run_wall_ms_count 0\n",
		"gocured_e2e_wall_ms_count 0\n",
		"gocured_queue_wait_ms_count 0\n",
		"# TYPE gocured_queue_depth gauge\ngocured_queue_depth 0\n",
		// Phase-labelled histogram blocks are complete per label.
		fmt.Sprintf("gocured_phase_ms_bucket{phase=\"parse\",le=%q} 1\n", fmtFloat(hi)),
		"gocured_phase_ms_bucket{phase=\"parse\",le=\"+Inf\"} 1\n",
		"gocured_phase_ms_sum{phase=\"parse\"} 2\n",
		"gocured_phase_ms_count{phase=\"parse\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// The classic parser accepts only an optional timestamp after a sample
	// value, so the 0.0.4 dialect must never carry exemplar syntax.
	if strings.Contains(out, "# {") {
		t.Errorf("0.0.4 output carries exemplar syntax:\n%s", out)
	}

	// Every # TYPE is preceded by its # HELP line.
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "# TYPE ") {
			if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP ") {
				t.Errorf("TYPE line without preceding HELP: %q", l)
			}
		}
	}
}

// promTestMetrics builds the hand-made snapshot both exposition-format
// tests render: counters, sorted trap kinds, and a compile-wall histogram
// whose buckets (including the +Inf overflow) carry exemplars.
func promTestMetrics() Metrics {
	lo, hi := logBoundsMS[8], logBoundsMS[60]
	return Metrics{
		Workers:      4,
		JobsRun:      7,
		RunsExecuted: 5,
		Traps:        2,
		TrapsByKind:  map[string]uint64{"null": 1, "bounds": 1},
		Cache:        CacheStats{Entries: 3, Hits: 2, Misses: 5},
		CompileWall: Histogram{
			Count: 4, SumMS: 12.5, MaxMS: 9,
			Buckets: []HistBucket{
				{LeMS: lo, Count: 1, Exemplar: &Exemplar{TraceID: "aaaaaaaaaaaaaaa1", ValueMS: 0.003}},
				{LeMS: hi, Count: 2},
				{Count: 1, Exemplar: &Exemplar{TraceID: "aaaaaaaaaaaaaaa2", ValueMS: 99000}},
			},
		},
		Phases: []PhaseHist{{Phase: "parse", Hist: Histogram{
			Count: 1, SumMS: 2, MaxMS: 2,
			Buckets: []HistBucket{{LeMS: hi, Count: 1}},
		}}},
	}
}

// TestWriteOpenMetricsFormat pins the OpenMetrics dialect: counter
// families declared without the _total sample suffix, exemplars riding
// histogram bucket lines (the overflow exemplar on +Inf), and a
// terminating # EOF line.
func TestWriteOpenMetricsFormat(t *testing.T) {
	lo := logBoundsMS[8]
	var b strings.Builder
	WriteOpenMetrics(&b, promTestMetrics())
	out := b.String()

	for _, want := range []string{
		// Counter families drop _total in HELP/TYPE; samples keep it.
		"# TYPE gocured_jobs_run counter\ngocured_jobs_run_total 7\n",
		"# TYPE gocured_traps_by_kind counter\n",
		"gocured_traps_by_kind_total{kind=\"bounds\"} 1\n",
		// Gauges keep their names.
		"# TYPE gocured_workers gauge\ngocured_workers 4\n",
		// Bucket exemplars, including the overflow exemplar on +Inf.
		fmt.Sprintf("gocured_compile_wall_ms_bucket{le=%q} 1 # {trace_id=\"aaaaaaaaaaaaaaa1\"} 0.003\n", fmtFloat(lo)),
		"gocured_compile_wall_ms_bucket{le=\"+Inf\"} 4 # {trace_id=\"aaaaaaaaaaaaaaa2\"} 99000\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics output does not end with # EOF:\n...%s", out[max(0, len(out)-80):])
	}
	if strings.Contains(out, "# TYPE gocured_jobs_run_total ") {
		t.Errorf("OpenMetrics TYPE line kept the _total suffix:\n%s", out)
	}
}

// TestExpositionFamilyOrder pins deterministic output: metric families are
// emitted in ascending name order in both dialects, so diffs between
// scrapes are stable and greppable.
func TestExpositionFamilyOrder(t *testing.T) {
	m := promTestMetrics()
	render := func(f func(*strings.Builder)) []string {
		var b strings.Builder
		f(&b)
		var fams []string
		for _, l := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(l, "# HELP ") {
				fams = append(fams, strings.Fields(l)[2])
			}
		}
		return fams
	}
	for dialect, f := range map[string]func(*strings.Builder){
		"prometheus":  func(b *strings.Builder) { WritePrometheus(b, m) },
		"openmetrics": func(b *strings.Builder) { WriteOpenMetrics(b, m) },
	} {
		fams := render(f)
		if len(fams) < 10 {
			t.Fatalf("%s: only %d families rendered", dialect, len(fams))
		}
		for i := 1; i < len(fams); i++ {
			if fams[i] <= fams[i-1] {
				t.Errorf("%s: family order not strictly ascending: %q then %q", dialect, fams[i-1], fams[i])
			}
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
