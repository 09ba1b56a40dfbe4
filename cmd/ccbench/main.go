// Command ccbench regenerates every table and figure of the paper's
// evaluation on the gocured corpus.
//
// Usage:
//
//	ccbench [-scale N] [-j N] [-only E3] [-trace-dir DIR]
//
// With -trace-dir, ccbench writes two Perfetto-loadable Chrome trace-event
// files into DIR: pipeline.json (one track per pipeline request still in
// the Runner's trace buffer, showing its queue-wait, cache-tier, compile
// phase and run spans) and e9-ftpd-cured.json (the flight recording of a
// cured ftpd exploit run, checks and all, ending in the trap that stops
// the overflow).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/experiments"
	"gocured/internal/flight"
	"gocured/internal/pipeline"
)

// writeFtpdTrace compiles the corpus ftpd and replays the E9 exploit
// session cured with the flight recorder on, writing the trace-event JSON.
func writeFtpdTrace(path string) error {
	p := corpus.ByName("ftpd")
	prog, err := gocured.Compile(p.Name+".c", p.Source, gocured.Options{TrustBadCasts: p.TrustBadCasts})
	if err != nil {
		return fmt.Errorf("compile ftpd: %w", err)
	}
	res, err := prog.Run(gocured.ModeCured, gocured.RunOptions{
		Stdin: []byte(corpus.FtpdExploitInput),
		Trace: true,
	})
	if err != nil {
		return fmt.Errorf("run ftpd: %w", err)
	}
	if !res.Trapped {
		return fmt.Errorf("cured ftpd exploit did not trap")
	}
	return os.WriteFile(path, res.TraceJSON, 0o644)
}

func main() {
	scale := flag.Int("scale", 0, "override the corpus SCALE constant (0 = source default)")
	jobs := flag.Int("j", runtime.NumCPU(), "concurrent curing/execution jobs")
	only := flag.String("only", "", "run a single experiment by id (E1..E11)")
	optJSON := flag.String("opt-json", "", "write the E10 -O0 vs -O comparison to this file as JSON (BENCH_opt.json)")
	interpJSON := flag.String("interp-json", "", "write the E11 tree vs vm backend comparison to this file as JSON (BENCH_interp.json)")
	storeJSON := flag.String("store-json", "", "write the E12 artifact-store cold/warm/edit comparison to this file as JSON (BENCH_store.json)")
	storeDir := flag.String("store-dir", "", "persistent artifact store directory for -store-json and compiles (empty = a throwaway temp directory)")
	traceDir := flag.String("trace-dir", "", "write Perfetto trace-event files (pipeline.json, e9-ftpd-cured.json) into this directory")
	flag.Parse()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	arts, err := pipeline.OpenStore(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := experiments.Config{
		Scale:  *scale,
		Jobs:   *jobs,
		Runner: pipeline.NewRunner(pipeline.RunnerOptions{Workers: *jobs, Store: arts}),
	}
	// writeTraces renders the Runner's request traces and the ftpd flight
	// recording once the requested experiments have run (on every exit
	// path that executed jobs).
	writeTraces := func() {
		if *traceDir == "" {
			return
		}
		pipePath := filepath.Join(*traceDir, "pipeline.json")
		f, err := os.Create(pipePath)
		if err == nil {
			err = flight.WriteRequestTrace(f, cfg.Runner.Traces().Recent(0))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", pipePath, err)
			os.Exit(1)
		}
		ftpdPath := filepath.Join(*traceDir, "e9-ftpd-cured.json")
		if err := writeFtpdTrace(ftpdPath); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", ftpdPath, err)
			os.Exit(1)
		}
		fmt.Printf("-- traces: %s, %s (load in Perfetto)\n", pipePath, ftpdPath)
	}

	all := map[string]func(experiments.Config) *experiments.Table{
		"E1":  experiments.CastClassification,
		"E2":  experiments.Fig8Apache,
		"E3":  experiments.Fig9System,
		"E4":  experiments.IjpegRTTI,
		"E5":  experiments.MicroSuite,
		"E6":  experiments.SplitOverhead,
		"E7":  experiments.BindCasts,
		"E8":  experiments.SplitStats,
		"E9":  experiments.Exploits,
		"E10": experiments.OptOverhead,
		"E11": experiments.InterpSpeed,
		"E12": experiments.StoreWarmth,
	}
	if *storeJSON != "" {
		dir := *storeDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "gocured-store-")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		b, err := experiments.WriteStoreBench(cfg, dir, *storeJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: cold re-cured %d/%d functions, warm re-cured %d, one-line edits re-cured %.1f%% (%d/%d)\n",
			*storeJSON, b.ColdRecured, b.TotalFuncs, b.WarmRecured,
			b.EditPct, b.EditRecured, b.EditedFuncs)
		writeTraces()
		return
	}
	if *interpJSON != "" {
		b, err := experiments.WriteInterpBench(cfg, *interpJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: bytecode vm is %.2fx the tree walker (geomean over %d programs)\n",
			*interpJSON, b.GeomeanSpeedup, len(b.Rows))
		writeTraces()
		return
	}
	if *optJSON != "" {
		b, err := experiments.WriteOptBench(cfg, *optJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: dynamic checks %d (-O0) -> %d (-O), %.1f%% eliminated\n",
			*optJSON, b.TotalChecksO0, b.TotalChecksO, b.DynReductionPct)
		writeTraces()
		return
	}
	if *only != "" {
		fn, ok := all[*only]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (E1..E11)\n", *only)
			os.Exit(2)
		}
		fmt.Println(fn(cfg).Format())
		writeTraces()
		return
	}
	for _, t := range experiments.All(cfg) {
		fmt.Println(t.Format())
	}
	writeTraces()
	m := cfg.Runner.Metrics()
	fmt.Printf("-- pipeline: %d jobs on %d workers, cache %d/%d hit/miss, compile mean %.1fms p99 %.1fms, run mean %.1fms, e2e p50/p99 %.1f/%.1fms\n",
		m.JobsRun, m.Workers, m.Cache.Hits, m.Cache.Misses,
		m.CompileWall.MeanMS(), m.CompileWall.Quantile(0.99), m.RunWall.MeanMS(),
		m.E2EWall.Quantile(0.50), m.E2EWall.Quantile(0.99))
}
