package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gocured/internal/store"
)

// WritePrometheus renders a Metrics snapshot in the classic Prometheus
// text exposition format (version 0.0.4): one # HELP / # TYPE pair per
// family, counters and gauges as single samples, histograms as cumulative
// le-labelled buckets plus _sum and _count. The 0.0.4 parser accepts only
// an optional timestamp after a sample value, so this dialect carries no
// exemplars; scrapers that negotiate OpenMetrics get them via
// WriteOpenMetrics.
func WritePrometheus(w io.Writer, m Metrics) {
	writeExposition(w, m, false)
}

// WriteOpenMetrics renders the same snapshot in the OpenMetrics text
// format (version 1.0.0): counter families are declared without their
// _total suffix, the exposition ends with `# EOF`, and histogram bucket
// lines carry exemplars (`# {trace_id="..."} value`) linking the bucket to
// the trace of its most recent observation, so a p999 bucket on a
// dashboard is one click from GET /traces/{id}.
func WriteOpenMetrics(w io.Writer, m Metrics) {
	writeExposition(w, m, true)
	fmt.Fprintln(w, "# EOF")
}

// promFamily buffers one metric family (HELP/TYPE plus samples) so the
// exposition can be emitted in sorted family-name order regardless of the
// order the snapshot is walked in. Deterministic ordering keeps scrape
// diffs stable and is pinned by test.
type promFamily struct {
	name string
	buf  bytes.Buffer
}

func writeExposition(w io.Writer, m Metrics, om bool) {
	var fams []*promFamily
	family := func(name string) *promFamily {
		f := &promFamily{name: name}
		fams = append(fams, f)
		return f
	}
	gauge := func(name, help string, v float64) {
		f := family(name)
		fmt.Fprintf(&f.buf, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, fmtFloat(v))
	}
	gaugeFamily := func(name, help string) *promFamily {
		f := family(name)
		fmt.Fprintf(&f.buf, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		return f
	}
	// counterFamily declares a counter family: OpenMetrics names the family
	// without the _total sample suffix, the classic format repeats it.
	counterFamily := func(name, help string) *promFamily {
		fam := name
		if om {
			fam = strings.TrimSuffix(name, "_total")
		}
		f := family(fam)
		fmt.Fprintf(&f.buf, "# HELP %s %s\n# TYPE %s counter\n", fam, help, fam)
		return f
	}
	counter := func(name, help string, v uint64) {
		f := counterFamily(name, help)
		fmt.Fprintf(&f.buf, "%s %d\n", name, v)
	}
	histFamily := func(name, help string) *promFamily {
		f := family(name)
		fmt.Fprintf(&f.buf, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		return f
	}

	{
		f := family("gocured_build_info")
		fmt.Fprintf(&f.buf, "# HELP gocured_build_info Build metadata (constant 1; labels carry the values).\n"+
			"# TYPE gocured_build_info gauge\n"+
			"gocured_build_info{version=%q,go_version=%q,optimizer=%q} 1\n",
			m.Build.Version, m.Build.GoVersion, m.Build.Optimizer)
	}

	gauge("gocured_workers", "Size of the job worker pool.", float64(m.Workers))
	gauge("gocured_jobs_in_flight", "Jobs currently executing.", float64(m.JobsInFlight))
	gauge("gocured_queue_depth", "Jobs currently waiting for a worker slot.", float64(m.QueueDepthNow))
	counter("gocured_jobs_run_total", "Jobs completed (including failures).", m.JobsRun)
	counter("gocured_jobs_failed_total", "Jobs that ended in an error.", m.JobsFailed)
	counter("gocured_jobs_panicked_total", "Jobs isolated after a panic.", m.JobsPanicked)
	counter("gocured_jobs_timed_out_total", "Jobs abandoned on timeout.", m.JobsTimedOut)
	counter("gocured_runs_executed_total", "Cured/raw program executions.", m.RunsExecuted)

	counter("gocured_traps_total", "Executions stopped by a memory-safety trap.", m.Traps)
	if len(m.TrapsByKind) > 0 {
		name := "gocured_traps_by_kind_total"
		f := counterFamily(name, "Traps by check kind.")
		kinds := make([]string, 0, len(m.TrapsByKind))
		for k := range m.TrapsByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&f.buf, "%s{kind=%q} %d\n", name, k, m.TrapsByKind[k])
		}
	}

	// Admission-control families are always exposed (zero before any
	// decision) so overload dashboards and the serve-overload CI gate can
	// rely on their presence. The shed counter carries an exemplar in the
	// OpenMetrics dialect: the trace ID of the most recently rejected job.
	gauge("gocured_queue_limit", "Configured admission-queue bound (0 = unbounded).", float64(m.QueueLimit))
	counter("gocured_admitted_total", "Jobs granted a worker slot by admission control.", m.Admitted)
	{
		f := counterFamily("gocured_shed_total", "Jobs rejected by admission control without queueing.")
		fmt.Fprintf(&f.buf, "gocured_shed_total %d", m.Shed)
		if om && m.ShedExemplar != nil {
			fmt.Fprintf(&f.buf, " # {trace_id=%q} %s", m.ShedExemplar.TraceID, fmtFloat(m.ShedExemplar.ValueMS))
		}
		fmt.Fprintln(&f.buf)
	}
	counter("gocured_coalesced_total", "Jobs served by joining an identical in-flight job.", m.Coalesced)
	counter("gocured_traceparent_malformed_total", "Inbound W3C traceparent headers discarded as malformed.", m.TraceparentMalformed)
	if len(m.ClientQueueDepths) > 0 {
		name := "gocured_client_queue_depth"
		f := gaugeFamily(name, "Waiting jobs per fair-queue client.")
		ids := make([]string, 0, len(m.ClientQueueDepths))
		for id := range m.ClientQueueDepths {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(&f.buf, "%s{client=%q} %d\n", name, id, m.ClientQueueDepths[id])
		}
	}

	gauge("gocured_cache_entries", "Live compile-cache entries.", float64(m.Cache.Entries))
	counter("gocured_cache_hits_total", "Compile-cache hits.", m.Cache.Hits)
	counter("gocured_cache_misses_total", "Compile-cache misses.", m.Cache.Misses)
	counter("gocured_cache_evictions_total", "Compile-cache LRU evictions.", m.Cache.Evictions)

	// Artifact-store families are always exposed (zero without a store) so
	// dashboards and smoke checks can rely on their presence.
	var st store.Stats
	if m.Store != nil {
		st = *m.Store
	}
	counter("gocured_store_hits_total", "Artifact-store chunk hits.", uint64(st.Hits))
	counter("gocured_store_misses_total", "Artifact-store chunk misses.", uint64(st.Misses))
	counter("gocured_store_writes_total", "Artifact-store chunks written.", uint64(st.Writes))
	counter("gocured_store_corrupt_dropped_total", "Corrupt chunks detected and dropped on read.", uint64(st.CorruptDropped))
	gauge("gocured_store_chunks", "Chunks resident in the artifact store.", float64(st.Chunks))
	gauge("gocured_store_bytes", "Bytes resident in the artifact store.", float64(st.Bytes))
	counter("gocured_funcs_recured_total", "Functions whose constraints were re-collected.", m.FuncsRecured)
	counter("gocured_funcs_loaded_total", "Functions replayed from stored summaries.", m.FuncsLoaded)

	// Request-trace buffer families (zero without a buffer); Dropped is the
	// one the load-harness gate watches.
	var added, evicted, dropped uint64
	var live int
	if m.Traces != nil {
		added, evicted, dropped, live = m.Traces.Added, m.Traces.Evicted, m.Traces.Dropped, m.Traces.Live
	}
	counter("gocured_traces_added_total", "Request traces recorded into the trace buffer.", added)
	counter("gocured_traces_evicted_total", "Request traces evicted from the bounded trace buffer.", evicted)
	counter("gocured_traces_dropped_total", "Malformed request traces refused by the trace buffer (expected 0).", dropped)
	gauge("gocured_traces_live", "Request traces currently queryable via /traces/{id}.", float64(live))

	hist := func(name, help string, h Histogram) {
		f := histFamily(name, help)
		writeHistogramSamples(&f.buf, name, "", h, om)
	}
	hist("gocured_e2e_wall_ms", "End-to-end job latency (queue wait + compile/cache + run) in milliseconds.", m.E2EWall)
	hist("gocured_queue_wait_ms", "Time jobs waited for a worker slot in milliseconds.", m.QueueWait)
	hist("gocured_queue_depth_hist", "Waiting-job count observed at each enqueue (dimensionless log buckets).", m.QueueDepth)
	hist("gocured_compile_wall_ms", "Compile wall time in milliseconds.", m.CompileWall)
	hist("gocured_run_wall_ms", "Run wall time in milliseconds.", m.RunWall)

	if len(m.Phases) > 0 {
		name := "gocured_phase_ms"
		f := histFamily(name, "Per-phase compile durations in milliseconds.")
		for _, p := range m.Phases {
			writeHistogramSamples(&f.buf, name, fmt.Sprintf("phase=%q,", p.Phase), p.Hist, om)
		}
	}

	// Emit families in lexicographic name order. The walk above groups by
	// subsystem for readability of this source file; sorting here is what
	// consumers see, and the stable sort keeps any accidental duplicate
	// family names in walk order rather than flapping.
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		w.Write(f.buf.Bytes())
	}
}

// writeHistogramSamples renders one labelled histogram's cumulative bucket
// lines over the canonical log-bucket bounds (sparse snapshots are summed
// back up while walking the bound list), then _sum and _count. labels is
// either empty or a `k="v",` prefix spliced before the le label. In the
// OpenMetrics dialect (om), bucket lines whose bucket has an exemplar get
// the exemplar suffix; the classic 0.0.4 parser rejects anything after the
// value, so exemplars are suppressed there.
func writeHistogramSamples(w io.Writer, name, labels string, h Histogram, om bool) {
	type bk struct {
		count    uint64
		exemplar *Exemplar
	}
	byLe := make(map[float64]bk, len(h.Buckets))
	var overflow bk
	for _, b := range h.Buckets {
		if b.LeMS > 0 {
			byLe[b.LeMS] = bk{b.Count, b.Exemplar}
		} else {
			overflow = bk{b.Count, b.Exemplar}
		}
	}
	var cum uint64
	for _, le := range logBoundsMS {
		b := byLe[le]
		cum += b.count
		// Keep the exposition compact: only bound lines that close a
		// non-empty bucket (or the first/last bound) are emitted. Partial
		// bucket lists are legal in the text format, and cumulative counts
		// stay exact because skipped buckets are empty by construction.
		if b.count == 0 && le != logBoundsMS[0] && le != logBoundsMS[logBucketCount-1] {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d", name, labels, fmtFloat(le), cum)
		if om && b.exemplar != nil {
			fmt.Fprintf(w, " # {trace_id=%q} %s", b.exemplar.TraceID, fmtFloat(b.exemplar.ValueMS))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d", name, labels, h.Count)
	if om && overflow.exemplar != nil {
		fmt.Fprintf(w, " # {trace_id=%q} %s", overflow.exemplar.TraceID, fmtFloat(overflow.exemplar.ValueMS))
	}
	fmt.Fprintln(w)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(h.SumMS))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels[:len(labels)-1], fmtFloat(h.SumMS))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels[:len(labels)-1], h.Count)
	}
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
