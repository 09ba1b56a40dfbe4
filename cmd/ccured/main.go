// Command ccured compiles a C source file with the gocured pipeline and
// reports the inference results: pointer-kind distribution, cast
// classification, split statistics, inserted checks, and (with -dump) the
// instrumented program.
//
// Usage:
//
//	ccured [-dump] [-dump-raw] [-no-rtti] [-no-subtyping] [-trust] [-split-all] [-O level] [-trace out.json] file.c
//
// With -explain, ccured prints an annotated blame chain for every pointer
// with a checked (non-SAFE) kind: the shortest constraint path from the
// pointer back to the cast, arithmetic, or annotation that forced the kind,
// with rule names and source locations. -site restricts the output to casts
// at one source position ("file.c:12" matches every column on that line).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gocured"
	"gocured/internal/flight"
)

// writeExplain renders the -explain output: one annotated blame chain per
// pointer equivalence class with a checked kind at the selected sites.
func writeExplain(w io.Writer, prog *gocured.Program, site string) {
	chains := prog.ExplainKind(site)
	fmt.Fprintln(w, "---- blame chains (why pointers have checked kinds) ----")
	if len(chains) == 0 {
		fmt.Fprintln(w, "nothing to explain: every pointer at the selected sites is SAFE")
	}
	for _, ch := range chains {
		fmt.Fprint(w, ch)
	}
}

func main() {
	dump := flag.Bool("dump", false, "print the instrumented (cured) program")
	dumpRaw := flag.Bool("dump-raw", false, "print the uninstrumented program")
	noRTTI := flag.Bool("no-rtti", false, "disable the RTTI pointer kind (original CCured downcasts)")
	noSub := flag.Bool("no-subtyping", false, "disable physical subtyping (POPL02 CCured)")
	trust := flag.Bool("trust", false, "trust remaining bad casts instead of making pointers WILD")
	splitAll := flag.Bool("split-all", false, "force the compatible (split) representation everywhere")
	optLevel := flag.Int("O", 1, "check optimization level: 0 keeps every inserted check, 1 runs the CFG optimizer")
	listCasts := flag.Bool("list-casts", false, "list every pointer cast with its classification (review trusted/bad ones)")
	explain := flag.Bool("explain", false, "print blame chains for WILD/SEQ/RTTI pointers (why each kind was inferred)")
	site := flag.String("site", "", "with -explain: only explain casts at this source position prefix (e.g. file.c:12)")
	traceOut := flag.String("trace", "", "write the compile phases as Chrome trace-event JSON to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccured [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := gocured.Options{
		NoRTTI:              *noRTTI,
		NoPhysicalSubtyping: *noSub,
		TrustBadCasts:       *trust,
		ForceSplitAll:       *splitAll,
		NoOptimize:          *optLevel == 0,
	}
	prog, err := gocured.Compile(file, string(src), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, d := range prog.Diagnostics() {
		fmt.Fprintln(os.Stderr, d)
	}
	s := prog.Stats()
	fmt.Printf("%s: %d lines\n", file, s.Lines)
	fmt.Printf("pointers: %d  SAFE %.1f%%  SEQ %.1f%%  WILD %.1f%%  RTTI %.1f%%\n",
		s.Pointers, s.PctSafe, s.PctSeq, s.PctWild, s.PctRtti)
	fmt.Printf("casts: %d  identity %d  upcasts %d  downcasts %d  alloc-typed %d  tile %d  bad %d  trusted %d\n",
		s.Casts, s.Identity, s.Upcasts, s.Downcasts, s.Alloc,
		s.SeqCasts, s.BadCasts, s.Trusted)
	fmt.Printf("split: %d pointers split (%.1f%%), %d need metadata pointers (%.1f%%)\n",
		s.SplitPointers, s.PctSplit, s.MetaPointers, s.PctMeta)
	fmt.Printf("run-time checks inserted: %d\n", s.ChecksInserted)
	if *optLevel > 0 {
		remaining := s.ChecksInserted - s.ChecksEliminated - s.ChecksCoalesced
		fmt.Printf("optimizer: %d eliminated, %d coalesced, %d hoisted, %d widened; %d remain\n",
			s.ChecksEliminated, s.ChecksCoalesced, s.ChecksHoisted, s.ChecksWidened, remaining)
	}
	if *listCasts {
		fmt.Println("---- casts (a security review starts at trusted/bad ones) ----")
		for _, c := range prog.Casts() {
			mark := ""
			if c.Trusted {
				mark = "  <-- REVIEW"
			}
			fmt.Printf("%-20s %-10s %s -> %s%s\n", c.Pos, c.Class, c.From, c.To, mark)
		}
	}
	if *explain {
		writeExplain(os.Stdout, prog, *site)
	}
	if *dumpRaw {
		fmt.Println("---- raw program ----")
		prog.DumpRaw(os.Stdout)
	}
	if *dump {
		fmt.Println("---- cured program ----")
		prog.DumpCured(os.Stdout)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// WriteSpanTrace (rather than RingFromSpans) tolerates overlapping
		// sibling spans: it rebuilds the tree and clamps, so the output is
		// ValidateTrace-clean whatever the front end recorded.
		err = flight.WriteSpanTrace(f, "compile "+file, prog.Spans(), map[string]any{"file": file})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "compile trace written to %s (load in Perfetto)\n", *traceOut)
	}
}
