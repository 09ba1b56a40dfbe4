// Command ccrun compiles and executes a C source file on the gocured
// simulated machine, either raw or cured (or under the Purify/Valgrind-
// style shadow policies).
//
// Usage:
//
//	ccrun [-mode raw|cured|purify|valgrind] [-stdin file] [-trust] [-steps N] [-phases] [-trace out.json] [-trace-buf N] [-prof N] [-store-dir dir] file.c
//
// Programs run on the bytecode VM.
//
// With -trace, the run's flight recording is written as Chrome trace-event
// JSON (load it in Perfetto or chrome://tracing), and a trapped run prints
// its black-box snapshot: the last recorded events, the call stack, and the
// blame chain. With -prof N, every N interpreter steps the current source
// line is sampled and a pprof-style top table is printed to stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"gocured"
	"gocured/internal/pipeline"
)

func main() {
	mode := flag.String("mode", "cured", "execution mode: raw, cured, purify, valgrind")
	stdinFile := flag.String("stdin", "", "file whose bytes feed getchar()")
	trust := flag.Bool("trust", false, "trust remaining bad casts")
	steps := flag.Uint64("steps", 0, "step limit (0 = default)")
	traceOut := flag.String("trace", "", "write the flight recording as Chrome trace-event JSON to this file")
	traceBuf := flag.Int("trace-buf", 0, "flight-recorder ring capacity in events (0 = 8192)")
	profPeriod := flag.Int("prof", 0, "sample the current source line every N interpreter steps (0 = off)")
	phases := flag.Bool("phases", false, "print per-phase compile durations to stderr before running")
	storeDir := flag.String("store-dir", "", "persistent artifact store directory; recompiles of unchanged functions are replayed from it (empty = off)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccrun [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var m gocured.Mode
	switch *mode {
	case "raw":
		m = gocured.ModeRaw
	case "cured":
		m = gocured.ModeCured
	case "purify":
		m = gocured.ModePurify
	case "valgrind":
		m = gocured.ModeValgrind
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	var stdin []byte
	if *stdinFile != "" {
		stdin, err = os.ReadFile(*stdinFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	opts := gocured.Options{TrustBadCasts: *trust}
	var sums gocured.SummarySource
	if arts, err := pipeline.OpenStore(*storeDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	} else if arts != nil {
		sums = arts.ForOptions(opts)
	}
	prog, err := gocured.CompileStored(file, string(src), opts, sums)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *phases {
		total := 0.0
		for _, sp := range prog.Spans() {
			fmt.Fprintf(os.Stderr, "phase %-12s %8.3fms\n", sp.Name, sp.DurMS)
			total += sp.DurMS
		}
		fmt.Fprintf(os.Stderr, "phase %-12s %8.3fms\n", "total", total)
	}
	res, err := prog.Run(m, gocured.RunOptions{
		Stdin:         stdin,
		StepLimit:     *steps,
		Trace:         *traceOut != "",
		TraceBuf:      *traceBuf,
		ProfilePeriod: *profPeriod,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.WriteString(res.Stdout)
	for _, r := range res.ToolReports {
		fmt.Fprintln(os.Stderr, r)
	}
	fmt.Fprintf(os.Stderr, "[%s] steps=%d checks=%d mem=%d\n",
		*mode, res.Steps, res.Checks, res.MemAccesses)
	if *traceOut != "" && res.TraceJSON != nil {
		if err := os.WriteFile(*traceOut, res.TraceJSON, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "flight recording written to %s (load in Perfetto)\n", *traceOut)
	}
	if len(res.Profile) > 0 {
		fmt.Fprintf(os.Stderr, "step profile (period %d):\n", *profPeriod)
		for i, l := range res.Profile {
			if i >= 10 {
				break
			}
			fmt.Fprintf(os.Stderr, "  %6d  %5.1f%%  %s\n", l.Samples, l.Pct, l.Pos)
		}
	}
	if res.Trapped {
		at := ""
		if res.TrapPos != "" {
			at = " at " + res.TrapPos
		}
		fmt.Fprintf(os.Stderr, "TRAP (%s)%s: %s\n", res.TrapKind, at, res.TrapMessage)
		for _, fn := range res.TrapStack {
			fmt.Fprintf(os.Stderr, "  in %s\n", fn)
		}
		for _, l := range res.TrapBlame {
			fmt.Fprintf(os.Stderr, "  | %s\n", l)
		}
		if bb := res.BlackBox; bb != nil {
			fmt.Fprintf(os.Stderr, "black box (last %d events", len(bb.Events))
			if bb.DroppedEvents > 0 {
				fmt.Fprintf(os.Stderr, ", %d older dropped", bb.DroppedEvents)
			}
			fmt.Fprintln(os.Stderr, "):")
			for _, e := range bb.Events {
				fmt.Fprintf(os.Stderr, "  %s\n", e)
			}
		}
		os.Exit(3)
	}
	os.Exit(res.ExitCode)
}
