package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"
	"time"

	"gocured/internal/core"
	"gocured/internal/corpus"
	"gocured/internal/infer"
	"gocured/internal/interp"
	"gocured/internal/provenance"
)

// E11: interpreter-backend throughput. Every corpus program is compiled
// once and executed in cured mode on both backends — the reference tree
// walker and the bytecode VM — and the rows report steps/second for each
// plus the per-program speedup. The two backends must agree exactly on
// observable behaviour (stdout, exit code, trap, every counter), so the
// measurement doubles as a corpus-wide differential run; any divergence
// panics. The headline number is the geometric mean speedup, tracked in
// BENCH_interp.json and gated by CI.

// InterpBenchRow is one program's tree vs vm measurement.
type InterpBenchRow struct {
	Name string `json:"name"`
	// Steps is the run's interpreter step count (identical on both
	// backends by construction).
	Steps uint64 `json:"steps"`

	// Wall times per run, milliseconds: the fastest of the reps (what the
	// throughput and speedup use) and the slowest, whose distance from it
	// shows how noisy the measurement was.
	TreeMS    float64 `json:"tree_ms"`
	VMMS      float64 `json:"vm_ms"`
	TreeMSMax float64 `json:"tree_ms_max"`
	VMMSMax   float64 `json:"vm_ms_max"`

	// Throughput in interpreter steps per second.
	TreeStepsPerSec float64 `json:"tree_steps_per_sec"`
	VMStepsPerSec   float64 `json:"vm_steps_per_sec"`

	// Speedup is vm throughput over tree throughput.
	Speedup float64 `json:"speedup"`

	// Trapped programs (the exploit demos) are still measured: both
	// backends must trap identically.
	Trapped bool `json:"trapped,omitempty"`
}

// InterpBench is the full tree vs vm comparison, serialized to
// BENCH_interp.json.
type InterpBench struct {
	// Host records the ccbench build's revision and the machine measured.
	provenance.Host
	Scale int              `json:"scale"`
	Reps  int              `json:"reps"`
	Rows  []InterpBenchRow `json:"rows"`
	// GeomeanSpeedup is the geometric mean of the per-program speedups —
	// the repository's headline vm/tree number.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// MeasureInterp compiles every corpus program once and times cured-mode
// execution on both backends, best of cfg-derived reps after one warmup
// run each. It bypasses the pipeline Runner: the point is wall time of
// the interpreter itself, not of cached artifacts.
func MeasureInterp(cfg Config) *InterpBench {
	progs := corpus.All()
	reps := 3
	bench := &InterpBench{Host: provenance.Here(), Scale: cfg.Scale, Reps: reps, Rows: make([]InterpBenchRow, len(progs))}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, p := range progs {
		wg.Add(1)
		go func(i int, p *corpus.Program) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bench.Rows[i] = measureBackends(p, cfg.Scale, reps)
		}(i, p)
	}
	wg.Wait()
	logSum := 0.0
	for _, r := range bench.Rows {
		logSum += math.Log(r.Speedup)
	}
	bench.GeomeanSpeedup = math.Exp(logSum / float64(len(bench.Rows)))
	return bench
}

func measureBackends(p *corpus.Program, scale, reps int) InterpBenchRow {
	src := p.Source
	if scale > 0 {
		src = corpus.WithScale(p, scale)
	}
	u, err := core.Build(p.Name+".c", src, infer.Options{TrustBadCasts: p.TrustBadCasts})
	if err != nil {
		panic(fmt.Sprintf("interpbench: build %s: %v", p.Name, err))
	}
	// The tree walker is reachable only through interp.Config, so E11 runs
	// the cured unit directly rather than through gocured.Program.Run.
	time1 := func(backend interp.Backend) (out *interp.Outcome, best, worst float64) {
		cfg := interp.Config{Backend: backend}
		// Warmup: the first vm run compiles the bytecode module (cached on
		// the Unit thereafter); the first run of either backend also warms
		// the Go heap and the CPU caches.
		out, err := u.RunCured(cfg)
		if err != nil {
			panic(fmt.Sprintf("interpbench: run %s (%s): %v", p.Name, backend, err))
		}
		best = math.MaxFloat64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, err := u.RunCured(cfg); err != nil {
				panic(fmt.Sprintf("interpbench: run %s (%s): %v", p.Name, backend, err))
			}
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			best, worst = math.Min(best, ms), math.Max(worst, ms)
		}
		return out, best, worst
	}
	treeOut, treeMS, treeMax := time1(interp.BackendTree)
	vmOut, vmMS, vmMax := time1(interp.BackendVM)
	// The backends must be observably identical — counters included.
	if treeOut.Stdout != vmOut.Stdout || treeOut.ExitCode != vmOut.ExitCode ||
		!reflect.DeepEqual(treeOut.Trap, vmOut.Trap) ||
		treeOut.Counters.Steps != vmOut.Counters.Steps || treeOut.Counters.Checks != vmOut.Counters.Checks ||
		treeOut.Counters.Cost != vmOut.Counters.Cost ||
		treeOut.MemLoads != vmOut.MemLoads || treeOut.MemStores != vmOut.MemStores {
		panic(fmt.Sprintf("interpbench: %s diverges between tree and vm: steps %d/%d checks %d/%d trap %v/%v",
			p.Name, treeOut.Counters.Steps, vmOut.Counters.Steps, treeOut.Counters.Checks, vmOut.Counters.Checks,
			treeOut.Trap, vmOut.Trap))
	}
	stepsPerSec := func(steps uint64, ms float64) float64 {
		if ms <= 0 {
			return 0
		}
		return float64(steps) / (ms / 1000)
	}
	return InterpBenchRow{
		Name:            p.Name,
		Steps:           treeOut.Counters.Steps,
		TreeMS:          treeMS,
		VMMS:            vmMS,
		TreeMSMax:       treeMax,
		VMMSMax:         vmMax,
		TreeStepsPerSec: stepsPerSec(treeOut.Counters.Steps, treeMS),
		VMStepsPerSec:   stepsPerSec(vmOut.Counters.Steps, vmMS),
		Speedup:         treeMS / vmMS,
		Trapped:         vmOut.Trap != nil,
	}
}

// InterpSpeed renders E11 as a table.
func InterpSpeed(cfg Config) *Table {
	b := MeasureInterp(cfg)
	t := &Table{
		ID:    "E11",
		Title: "interpreter backends: tree walker vs bytecode vm (cured mode)",
		Note: "best-of-" + fmt.Sprint(b.Reps) + " wall times; both backends are verified\n" +
			"bit-identical on stdout, traps, and every counter before timing counts",
		Header: []string{"program", "steps", "tree ms", "vm ms",
			"tree steps/s", "vm steps/s", "speedup"},
	}
	for _, r := range b.Rows {
		name := r.Name
		if r.Trapped {
			name += "*"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(r.Steps),
			fmt.Sprintf("%.2f", r.TreeMS), fmt.Sprintf("%.2f", r.VMMS),
			fmt.Sprintf("%.0f", r.TreeStepsPerSec), fmt.Sprintf("%.0f", r.VMStepsPerSec),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	t.Rows = append(t.Rows, []string{
		"GEOMEAN", "", "", "", "", "", fmt.Sprintf("%.2fx", b.GeomeanSpeedup),
	})
	return t
}

// WriteInterpBench runs MeasureInterp and writes the result as indented
// JSON — the BENCH_interp.json artifact tracked in the repository and
// gated by CI.
func WriteInterpBench(cfg Config, path string) (*InterpBench, error) {
	b := MeasureInterp(cfg)
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return b, os.WriteFile(path, append(data, '\n'), 0o644)
}
