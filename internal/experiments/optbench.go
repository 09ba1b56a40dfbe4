package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/provenance"
)

// E10: check-optimizer overhead. Every corpus program is cured twice — at
// -O0 (every inserted check stays) and at -O (the CFG optimizer runs) —
// and executed in cured mode under both. The rows report the static
// optimizer effect (checks eliminated / coalesced / hoisted / widened) and
// the dynamic one (executed checks and simulated cycles). The two builds
// must agree exactly on observable behaviour — stdout, exit code, trap —
// so this experiment doubles as a corpus-wide differential run for the
// optimizer; any divergence panics.

// OptBenchRow is one program's -O0 vs -O measurement.
type OptBenchRow struct {
	Name string `json:"name"`

	// Static counts.
	Inserted   int `json:"checks_inserted"`
	Eliminated int `json:"checks_eliminated"`
	Coalesced  int `json:"checks_coalesced"`
	Hoisted    int `json:"checks_hoisted"`
	Widened    int `json:"checks_widened"`

	// Dynamic counts in cured mode.
	ChecksO0 uint64 `json:"dyn_checks_o0"`
	ChecksO  uint64 `json:"dyn_checks_o"`
	CyclesO0 uint64 `json:"sim_cycles_o0"`
	CyclesO  uint64 `json:"sim_cycles_o"`

	// Wall-clock times (milliseconds; indicative, unlike the cycle counts).
	CompileO0MS float64 `json:"compile_o0_ms"`
	CompileOMS  float64 `json:"compile_o_ms"`
	RunO0MS     float64 `json:"run_o0_ms"`
	RunOMS      float64 `json:"run_o_ms"`

	// Trapped programs (the exploit demos) are still measured: both builds
	// must trap identically.
	Trapped bool `json:"trapped,omitempty"`

	// DynReductionPct is the per-program dynamic check reduction.
	DynReductionPct float64 `json:"dyn_reduction_pct"`
}

// OptBench is the full -O0 vs -O comparison, serialized to BENCH_opt.json.
type OptBench struct {
	// Host records the ccbench build's revision and the machine measured.
	provenance.Host
	Scale           int           `json:"scale"`
	Rows            []OptBenchRow `json:"rows"`
	TotalChecksO0   uint64        `json:"total_dyn_checks_o0"`
	TotalChecksO    uint64        `json:"total_dyn_checks_o"`
	DynReductionPct float64       `json:"dyn_reduction_pct"`
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * (1 - float64(part)/float64(whole))
}

// MeasureOpt builds and runs every corpus program at -O0 and -O. It
// bypasses the pipeline Runner: wall times of cached artifacts would be
// meaningless, and the point is to execute both builds fresh.
func MeasureOpt(cfg Config) *OptBench {
	progs := corpus.All()
	bench := &OptBench{Host: provenance.Here(), Scale: cfg.Scale, Rows: make([]OptBenchRow, len(progs))}
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
			bench.Rows[i] = measureOne(p, cfg.Scale)
		}(i, p)
	}
	wg.Wait()
	for _, r := range bench.Rows {
		bench.TotalChecksO0 += r.ChecksO0
		bench.TotalChecksO += r.ChecksO
	}
	bench.DynReductionPct = pct(bench.TotalChecksO, bench.TotalChecksO0)
	return bench
}

func measureOne(p *corpus.Program, scale int) OptBenchRow {
	src := p.Source
	if scale > 0 {
		src = corpus.WithScale(p, scale)
	}
	build := func(noOpt bool) (*gocured.Program, gocured.Stats, *gocured.Result, float64, float64) {
		opts := gocured.Options{TrustBadCasts: p.TrustBadCasts, NoOptimize: noOpt}
		t0 := time.Now()
		prog, err := gocured.Compile(p.Name+".c", src, opts)
		compileMS := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			panic(fmt.Sprintf("optbench: build %s: %v", p.Name, err))
		}
		t0 = time.Now()
		out, err := prog.Run(gocured.ModeCured, gocured.RunOptions{})
		runMS := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			panic(fmt.Sprintf("optbench: run %s: %v", p.Name, err))
		}
		return prog, prog.Stats(), out, compileMS, runMS
	}
	_, _, o0, c0ms, r0ms := build(true)
	_, st, o1, c1ms, r1ms := build(false)
	// The optimizer must be observably invisible.
	if o0.Stdout != o1.Stdout || o0.ExitCode != o1.ExitCode ||
		o0.Trapped != o1.Trapped || o0.TrapKind != o1.TrapKind {
		panic(fmt.Sprintf("optbench: %s diverges between -O0 and -O: trapped %v/%v kind %q/%q",
			p.Name, o0.Trapped, o1.Trapped, o0.TrapKind, o1.TrapKind))
	}
	return OptBenchRow{
		Name:       p.Name,
		Inserted:   st.ChecksInserted,
		Eliminated: st.ChecksEliminated,
		Coalesced:  st.ChecksCoalesced,
		Hoisted:    st.ChecksHoisted,
		Widened:    st.ChecksWidened,
		ChecksO0:   o0.Checks, ChecksO: o1.Checks,
		CyclesO0: o0.SimCycles, CyclesO: o1.SimCycles,
		CompileO0MS: c0ms, CompileOMS: c1ms,
		RunO0MS: r0ms, RunOMS: r1ms,
		Trapped:         o1.Trapped,
		DynReductionPct: pct(o1.Checks, o0.Checks),
	}
}

// OptOverhead renders E10 as a table.
func OptOverhead(cfg Config) *Table {
	b := MeasureOpt(cfg)
	t := &Table{
		ID:    "E10",
		Title: "check optimizer: -O0 vs -O (static and dynamic checks)",
		Note: "elim/coal are static deletions, hoist/widen moves out of loops;\n" +
			"dyn checks and cycles are cured-mode executions of the same program",
		Header: []string{"program", "inserted", "elim", "coal", "hoist", "widen",
			"dyn checks -O0", "dyn checks -O", "dyn -%", "cycles -O0", "cycles -O"},
	}
	for _, r := range b.Rows {
		name := r.Name
		if r.Trapped {
			name += "*"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(r.Inserted), fmt.Sprint(r.Eliminated), fmt.Sprint(r.Coalesced),
			fmt.Sprint(r.Hoisted), fmt.Sprint(r.Widened),
			fmt.Sprint(r.ChecksO0), fmt.Sprint(r.ChecksO),
			fmt.Sprintf("%.1f", r.DynReductionPct),
			fmt.Sprint(r.CyclesO0), fmt.Sprint(r.CyclesO),
		})
	}
	t.Rows = append(t.Rows, []string{
		"TOTAL", "", "", "", "", "",
		fmt.Sprint(b.TotalChecksO0), fmt.Sprint(b.TotalChecksO),
		fmt.Sprintf("%.1f", b.DynReductionPct), "", "",
	})
	return t
}

// WriteOptBench runs MeasureOpt and writes the result as indented JSON —
// the BENCH_opt.json artifact tracked in the repository and uploaded by CI.
func WriteOptBench(cfg Config, path string) (*OptBench, error) {
	b := MeasureOpt(cfg)
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return b, os.WriteFile(path, append(data, '\n'), 0o644)
}
