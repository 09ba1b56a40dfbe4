// Command perfbench is gocured's benchmark. It runs one of four workloads
// over the corpus programs and prints, as the last line of its output, one
// JSON object with the ops attempted and failed and the workload's metrics:
// the seven end-to-end metrics, or with --trace 1 the per-layer ledger.
//
//	perfbench --workload compile|execute|serve-hit|serve-edit \
//	          --seed N --seconds S --trace 0|1 \
//	          --root CHECKOUT --ccserve PATH
//
// run.py builds this program and ccserve from the checkout and starts it
// with --root and --ccserve filled in. The workloads:
//
//   - compile: gocured.Compile of every corpus program, whole seeded-order
//     passes, one goroutine. Only the compiler layers work.
//   - execute: one cured Program.Run per op over programs compiled (with
//     their bytecode) in set-up, whole passes. Only the interpreter works.
//   - serve-hit: compile-only POST /cure of corpus sources to a ccserve
//     primed so every timed request is a memory-cache hit.
//   - serve-edit: POST /cure of corpus sources with a fresh one-line edit
//     each, to a ccserve with an artifact store, so every request misses
//     the memory cache, replays the store and evicts from the LRU.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times each workload performs its set-up; setup_s
// is the median, so one slow set-up does not move it.
const setupReps = 3

// guardTolerance bounds how far the traced replica's op time may drift
// from the untraced op time (as a share) before the replica counts as
// stale: a change to core's orchestration that the replica does not copy
// (dropping a pass, say) moves the untraced time but not the replica's.
const guardTolerance = 0.10

// minCoverage is the share of a traced op's wall time its layer spans must
// cover; the rest is the replica's own glue.
const minCoverage = 0.95

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root
	ccserve  string // ccserve binary (serve workloads)
	outDir   string // logs, span files and temporary stores, in the checkout
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	lat               []float64 // per successful op, ms
	wall              float64   // measured phase, s
	rssMB             float64   // peak RSS of the process under test
	setup             []float64 // one per set-up, s
	windows           []window  // the measured phase cut into passes or seconds
	layers            map[string]float64
	guardErr          error // replica guard or span-file failure (trace runs)
	notes             []string
}

// window is one slice of the measured phase: a pass of a library
// workload, a second of a serve workload. Throughput and CPU per op are
// medians over windows, so a burst of interference on the shared machine
// moves a few windows, not the result.
type window struct {
	ops       int
	secs, cpu float64
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts a failed op, noting the first few.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		o.note("op failed: "+format, args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var rc runConfig
	var traceFlag int
	var regen string
	flag.StringVar(&rc.workload, "workload", "", "compile, execute, serve-hit or serve-edit")
	flag.Int64Var(&rc.seed, "seed", 1, "seed for program order, program choice and edit constants")
	flag.Float64Var(&rc.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced replica and prints the per-layer metrics")
	flag.StringVar(&rc.root, "root", ".", "checkout root")
	flag.StringVar(&rc.ccserve, "ccserve", "", "ccserve binary (serve workloads)")
	flag.StringVar(&regen, "regen-expected", "", "write the reference outputs to this file and exit")
	flag.Parse()
	rc.trace = traceFlag == 1
	if regen != "" {
		if err := writeExpected(regen); err != nil {
			fatal(err)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if rc.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	rc.outDir = filepath.Join(rc.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fatal(err)
	}
	progs, err := loadPrograms()
	if err != nil {
		fatal(err)
	}
	rep, notes, err := run(rc, progs)
	if err != nil {
		fatal(err)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload with the noise record around it and turns the
// outcome into the report.
func run(rc runConfig, progs []*benchProgram) (*report, []string, error) {
	var workload func([]*benchProgram, runConfig) (*outcome, error)
	switch rc.workload {
	case "compile":
		workload = compileWorkload
	case "execute":
		workload = executeWorkload
	case "serve-hit":
		workload = serveHitWorkload
	case "serve-edit":
		workload = serveEditWorkload
	default:
		return nil, nil, fmt.Errorf("unknown --workload %q (want compile, execute, serve-hit or serve-edit)", rc.workload)
	}
	noise := startNoise()
	o, err := workload(progs, rc)
	if err != nil {
		return nil, nil, err
	}
	steal, calib := noise.finish()
	notes := append([]string{}, o.notes...)
	notes = append(notes, fmt.Sprintf("machine: steal_pct=%.2f calib_ms=%.3f cpu=%q gomaxprocs=%d go=%s source_sha256=%s",
		steal, calib, cpuModel(), runtime.GOMAXPROCS(0), runtime.Version(), sourceDigest(rc.root)))

	rep := &report{
		Correct:   o.failed == 0 && o.attempted > 0 && o.guardErr == nil,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if o.guardErr != nil {
		notes = append(notes, "guard: FAILED: "+o.guardErr.Error())
	}
	if rc.trace {
		o.layers["machine.steal_pct"] = steal
		o.layers["machine.calib_ms"] = calib
		for _, m := range perLayerMetrics() {
			rep.Metrics[m.name] = metricValue{Value: o.layers[m.name], Unit: m.unit}
		}
		return rep, notes, nil
	}
	e2e, support := endToEnd(o)
	notes = append(notes, support)
	for _, m := range endToEndMetrics {
		rep.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
	}
	return rep, notes, nil
}

// endToEnd derives the end-to-end metrics from an outcome, with a line
// stating the sample support of each percentile. Percentiles are over all
// ops of the measured phase; throughput and CPU per op are window medians.
func endToEnd(o *outcome) (map[string]float64, string) {
	lat := append([]float64(nil), o.lat...)
	sort.Float64s(lat)
	n := len(lat)
	var rate, cpu []float64
	for _, w := range o.windows {
		if w.ops > 0 {
			rate = append(rate, float64(w.ops)/w.secs)
			cpu = append(cpu, 1000*w.cpu/float64(w.ops))
		}
	}
	m := map[string]float64{
		"p50_ms":        quantile(lat, 0.50),
		"p90_ms":        quantile(lat, 0.90),
		"p99_ms":        quantile(lat, 0.99),
		"ops_per_s":     median(rate),
		"cpu_ms_per_op": median(cpu),
		"rss_mb":        o.rssMB,
		"setup_s":       median(o.setup),
	}
	support := fmt.Sprintf("samples: n=%d beyond_p90=%d beyond_p99=%d wall_s=%.3f windows=%d window_ops_per_s=%s setups_s=%s",
		n, n-int(float64(n)*0.90+0.5), n-int(float64(n)*0.99+0.5), o.wall, len(rate), fmtFloats(rate), fmtFloats(o.setup))
	return m, support
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func fmtFloats(xs []float64) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4f", x)
	}
	return out + "]"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// errMismatch marks an op whose output differs from the reference.
var errMismatch = errors.New("output differs from the reference")
