// Package gocured is a from-scratch Go reproduction of CCured, the memory-
// safety program transformation system of Necula et al., as extended by
// "CCured in the Real World" (Condit, Harren, McPeak, Necula, Weimer;
// PLDI 2003).
//
// The library compiles a C program (a substantial C subset with CCured's
// annotation extensions), infers a pointer kind — SAFE, SEQ, WILD, or RTTI —
// for every pointer occurrence using physical subtyping and run-time type
// information, instruments the program with CCured's run-time checks, and
// executes either the original or the cured program on a simulated ILP32
// machine. Uncured programs really corrupt memory on buffer overflows;
// cured programs trap.
//
// Quick start:
//
//	prog, err := gocured.Compile("demo.c", src, gocured.Options{})
//	raw, _   := prog.Run(gocured.ModeRaw, gocured.RunOptions{})
//	cured, _ := prog.Run(gocured.ModeCured, gocured.RunOptions{})
//	fmt.Println(prog.Stats().PctSafe, cured.Trapped)
package gocured

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"gocured/internal/cil"
	"gocured/internal/core"
	"gocured/internal/ctypes"
	"gocured/internal/flight"
	"gocured/internal/infer"
	"gocured/internal/interp"
	"gocured/internal/trace"
)

// Version identifies the compiler/analysis revision. The pipeline's
// content-addressed cache folds it into every key, so cached Programs are
// invalidated whenever the curing algorithm changes behaviour.
const Version = "gocured-1"

// Options configure compilation and inference.
type Options struct {
	// NoRTTI disables the RTTI pointer kind: checked downcasts become bad
	// casts and their pointers go WILD (the pre-PLDI03 system; used by the
	// ijpeg ablation experiment).
	NoRTTI bool
	// NoPhysicalSubtyping additionally disables upcast verification
	// (the original POPL02 CCured).
	NoPhysicalSubtyping bool
	// TrustBadCasts treats remaining bad casts as trusted rather than
	// making pointers WILD — the tradeoff used for bind in §5.
	TrustBadCasts bool
	// ForceSplitAll puts every type in the compatible (split)
	// representation — the §5 all-split overhead ablation.
	ForceSplitAll bool
	// NoOptimize disables the CFG-based check optimizer (-O0): every check
	// the curer inserted stays in the program. The default (optimizer on)
	// deletes checks proven redundant and hoists loop-invariant ones.
	NoOptimize bool
}

// Mode selects how Run executes the program.
type Mode int

// Execution modes.
const (
	// ModeRaw runs the original program with no instrumentation.
	ModeRaw Mode = iota
	// ModeCured runs the instrumented program with CCured's checks.
	ModeCured
	// ModePurify runs the original program under a Purify-style
	// shadow-memory policy (reports, does not trap).
	ModePurify
	// ModeValgrind runs the original program under a Valgrind-style
	// shadow-memory policy.
	ModeValgrind
)

var modeNames = [...]string{"raw", "cured", "purify", "valgrind"}

func (m Mode) String() string { return modeNames[m] }

// Modes lists every execution mode, in Mode order.
func Modes() []Mode {
	return []Mode{ModeRaw, ModeCured, ModePurify, ModeValgrind}
}

// ParseMode parses a mode name ("raw", "cured", "purify", "valgrind").
func ParseMode(s string) (Mode, error) {
	for i, n := range modeNames {
		if s == n {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want raw, cured, purify, or valgrind)", s)
}

// RunOptions configure one execution.
type RunOptions struct {
	// StepLimit bounds executed instructions (0 = 1e9).
	StepLimit uint64
	// Stdin supplies bytes for getchar().
	Stdin []byte
	// Args are program arguments for main(int argc, char **argv).
	Args []string
	// Trace enables the flight recorder: every check, trap, allocation,
	// fat-pointer conversion, wrapper call, and call/return is recorded into
	// a fixed-size ring, rendered into Result.TraceJSON (Chrome trace-event
	// format, loadable in Perfetto). On a trap, Result.BlackBox carries the
	// final ring window. Disabled (the default) the recorder costs one nil
	// comparison per event site.
	Trace bool
	// TraceBuf overrides the ring capacity in events (0 = 8192). The ring
	// keeps the most recent TraceBuf events; older ones are dropped and
	// counted.
	TraceBuf int
	// ProfilePeriod enables step-sampling profiling: every ProfilePeriod
	// interpreter steps the current source line is sampled into
	// Result.Profile. 0 disables; use flight.DefaultSamplePeriod (4096) for
	// the standard rate.
	ProfilePeriod int
}

// Result is the outcome of one execution.
type Result struct {
	ExitCode int
	Stdout   string
	// Trapped reports whether a memory-safety check (or the simulated
	// MMU) stopped the program; TrapKind/TrapMessage give details.
	Trapped     bool
	TrapKind    string
	TrapMessage string
	// TrapPos is the rendered source location of the trapping statement,
	// TrapStack the cured-program call stack at the trap (innermost frame
	// first), and TrapBlame the inference blame chain of the pointer whose
	// check fired — why the pointer had a checked kind at all.
	TrapPos   string
	TrapStack []string
	TrapBlame []string
	// Steps and Checks are dynamic counters; MemAccesses counts raw
	// loads+stores; SimCycles is the deterministic simulated-cycle count
	// used for slowdown ratios (see EXPERIMENTS.md).
	Steps, Checks, MemAccesses, SimCycles uint64
	// CheckSites lists every executed check site with its hit and trap
	// counts, hottest first (per-site attribution of the checking cost).
	CheckSites []CheckSiteCount
	// ToolReports carries Purify/Valgrind-style diagnostics.
	ToolReports []string
	// TraceJSON is the Chrome trace-event rendering of the run's flight
	// recording (RunOptions.Trace); nil when tracing was off. The file has
	// one track for the compile phases and one for the interpreter, and
	// loads directly into Perfetto or chrome://tracing.
	TraceJSON []byte
	// Profile lists the hottest cured-source lines by sampled interpreter
	// steps (RunOptions.ProfilePeriod), hottest first.
	Profile []ProfileLine
	// BlackBox is the crash snapshot: the last ring window up to the trap,
	// with the call stack and blame chain. Nil unless tracing was on and the
	// run trapped.
	BlackBox *flight.BlackBox
}

// ProfileLine is one line of the step-sampling profile.
type ProfileLine struct {
	Pos      string  `json:"pos"`
	Samples  uint64  `json:"samples"`
	Pct      float64 `json:"pct"`
	EstSteps uint64  `json:"est_steps"`
}

// CheckSiteCount is one check site's dynamic counters. Eliminated counts
// checks the optimizer deleted statically at the site, so the report stays
// truthful about what curing originally inserted there.
type CheckSiteCount struct {
	Pos        string `json:"pos"`
	Kind       string `json:"kind"`
	Hits       uint64 `json:"hits"`
	Traps      uint64 `json:"traps"`
	Eliminated uint64 `json:"eliminated,omitempty"`
}

// TopCheckSites returns the n hottest check sites of the run.
func (r *Result) TopCheckSites(n int) []CheckSiteCount {
	if n > len(r.CheckSites) {
		n = len(r.CheckSites)
	}
	return r.CheckSites[:n]
}

// Stats summarizes the static analysis of a compiled program: the pointer
// kind distribution (the sf/sq/w/rt columns of the paper's Figures 8 and 9),
// the cast classification of §3, and the split-representation statistics of
// §4.2.
type Stats struct {
	Pointers int
	Safe     int
	Seq      int
	Wild     int
	Rtti     int

	PctSafe, PctSeq, PctWild, PctRtti float64

	Casts     int // casts involving pointer types
	Identity  int // physically equal
	Upcasts   int
	Downcasts int
	SeqCasts  int // tiling-compatible SEQ casts
	BadCasts  int
	Trusted   int
	Alloc     int // allocator-result casts (polymorphic allocator typing)

	SplitPointers int // pointers using the compatible representation
	MetaPointers  int // split pointers that need a metadata pointer
	PctSplit      float64
	PctMeta       float64

	ChecksInserted int // static run-time checks added by curing
	// Optimizer statistics (all zero at -O0): checks deleted outright
	// (eliminated as available + coalesced into a widened neighbor), and
	// checks moved out of loops (hoisted invariant + widened induction).
	ChecksEliminated int
	ChecksCoalesced  int
	ChecksHoisted    int
	ChecksWidened    int
	Lines            int // source lines
}

// Program is a compiled and cured translation unit.
//
// A Program is safe for concurrent use: Run creates a fresh interpreter
// (machine state, simulated memory, stack) per call, and the shared
// analysis artifacts it consults — the solved qualifier graph, the split
// result and the cured struct layouts — are frozen read-only after
// Compile, while the RTTI hierarchy is internally synchronized. Many
// goroutines may Run the same Program (in any mix of Modes) and read
// Stats, Casts, and Diagnostics at the same time; the pipeline Runner
// relies on this to execute cached Programs in parallel.
type Program struct {
	unit *core.Unit
	opts Options
}

// Compile parses, type checks, infers pointer kinds for, and instruments a
// C source file. The returned Program can run in any Mode.
func Compile(filename, src string, opts Options) (*Program, error) {
	return CompileStored(filename, src, opts, nil)
}

// SummarySource supplies persisted per-function inference summaries to
// CompileStored (see internal/store for the on-disk implementation).
type SummarySource = infer.SummarySource

// IncrStats reports how an incremental compilation composed its inference
// result: functions replayed from stored summaries vs. re-collected.
type IncrStats = infer.IncrStats

// CompileStored is Compile backed by a persistent artifact store: functions
// whose stored constraint summaries still match the current source are
// replayed instead of re-inferred, producing a bit-identical Program. A nil
// sums degrades to Compile.
func CompileStored(filename, src string, opts Options, sums SummarySource) (*Program, error) {
	u, err := core.BuildStored(filename, src, infer.Options{
		NoRTTI:              opts.NoRTTI,
		NoPhysicalSubtyping: opts.NoPhysicalSubtyping,
		TrustBadCasts:       opts.TrustBadCasts,
		SplitAll:            opts.ForceSplitAll,
		NoOptimize:          opts.NoOptimize,
	}, sums)
	if err != nil {
		return nil, err
	}
	return &Program{unit: u, opts: opts}, nil
}

// IncrStats reports how this Program's inference was composed (all-recured
// for a plain Compile).
func (p *Program) IncrStats() IncrStats { return p.unit.Incr }

// Run executes the program in the given mode on the bytecode VM.
func (p *Program) Run(mode Mode, opt RunOptions) (*Result, error) {
	return p.run(mode, opt, interp.BackendVM)
}

// run executes the program on the given backend. Only tests select the
// tree walker, as the reference the VM's Results must equal.
func (p *Program) run(mode Mode, opt RunOptions, backend interp.Backend) (*Result, error) {
	cfg := interp.Config{
		StepLimit: opt.StepLimit,
		Stdin:     opt.Stdin,
		Args:      opt.Args,
		Backend:   backend,
	}
	var ring *flight.Ring
	if opt.Trace {
		capacity := opt.TraceBuf
		if capacity <= 0 {
			capacity = flight.DefaultRingCap
		}
		ring = flight.NewRing(capacity, "interp "+mode.String())
		cfg.Flight = ring
	}
	var prof *flight.Profile
	if opt.ProfilePeriod > 0 {
		prof = flight.NewProfile(opt.ProfilePeriod)
		cfg.Profile = prof
	}
	var out *interp.Outcome
	var err error
	switch mode {
	case ModeRaw:
		out, err = p.unit.RunRaw(interp.PolicyNone, cfg)
	case ModeCured:
		out, err = p.unit.RunCured(cfg)
	case ModePurify:
		out, err = p.unit.RunRaw(interp.PolicyPurify, cfg)
	case ModeValgrind:
		out, err = p.unit.RunRaw(interp.PolicyValgrind, cfg)
	default:
		return nil, fmt.Errorf("unknown mode %d", mode)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{
		ExitCode:    out.ExitCode,
		Stdout:      out.Stdout,
		Steps:       out.Counters.Steps,
		Checks:      out.Counters.Checks,
		MemAccesses: out.MemLoads + out.MemStores,
		SimCycles:   out.Counters.Cost,
		ToolReports: out.ToolReports,
	}
	if out.Trap != nil {
		res.Trapped = true
		res.TrapKind = out.Trap.Kind
		res.TrapMessage = out.Trap.Msg
		res.TrapPos = out.Trap.Pos
		res.TrapStack = out.Trap.Stack
		if out.TrapProv != nil {
			res.TrapBlame = out.TrapProv.Blame
		}
	}
	for _, s := range out.Counters.TopSites(0) {
		res.CheckSites = append(res.CheckSites, CheckSiteCount{
			Pos: s.Pos, Kind: s.Kind.String(), Hits: s.Hits, Traps: s.Traps,
			Eliminated: s.Elided,
		})
	}
	if ring != nil {
		// Two tracks: the compile phases (wall ms rescaled to µs) give the
		// trace a build prologue; the interpreter track runs in simulated
		// cycles, so timestamps are deterministic across runs.
		var buf bytes.Buffer
		rings := []*flight.Ring{ring}
		if len(p.unit.Spans) > 0 {
			rings = append([]*flight.Ring{flight.RingFromSpans("compile", p.unit.Spans)}, rings...)
		}
		if werr := flight.WriteTrace(&buf, rings); werr == nil {
			res.TraceJSON = buf.Bytes()
		}
		res.BlackBox = out.BlackBox
	}
	if prof != nil {
		for _, l := range prof.Top(0) {
			res.Profile = append(res.Profile, ProfileLine{
				Pos: l.Pos, Samples: l.Samples, Pct: l.Pct, EstSteps: l.EstSteps,
			})
		}
	}
	return res, nil
}

// Spans returns the per-phase wall times of the compilation (parse, sema,
// lower, infer, instrument).
func (p *Program) Spans() []trace.Span { return p.unit.Spans }

// ExplainKind returns rendered blame chains explaining why pointers at a
// given cast site carry a checked (non-SAFE) kind: bad or demoted casts
// explain WILD, downcasts RTTI, tiling and integer casts SEQ. site is a
// prefix of the rendered source position ("file.c:12" matches every column
// on that line); "" explains every interesting site. Chains for pointers in
// the same equivalence class are reported once.
func (p *Program) ExplainKind(site string) []string {
	res := p.unit.Res
	seen := make(map[string]bool)
	var out []string
	explain := func(t *ctypes.Type) {
		n := res.Graph.Lookup(t)
		if n == nil {
			return
		}
		key := fmt.Sprintf("n%d/%s", n.ID, res.Graph.KindOf(t))
		if seen[key] {
			return
		}
		ch := res.Explain(t)
		if ch == nil {
			return
		}
		seen[key] = true
		out = append(out, ch.Render())
	}
	for _, c := range res.Casts {
		if site != "" && !strings.HasPrefix(c.Pos.String(), site) {
			continue
		}
		switch {
		case c.Class == infer.CastBad || c.WentWild:
			explain(c.From)
			explain(c.To)
		case c.Class == infer.CastDowncast:
			explain(c.From)
		case c.Class == infer.CastSeqTile, c.Class == infer.CastIntToPtr:
			explain(c.From)
			explain(c.To)
		case c.Class == infer.CastIdentity, c.Class == infer.CastUpcast:
			// An innocent-looking cast whose pointers were infected through
			// data flow: explain() is a no-op for SAFE pointers, so only the
			// infected ones produce chains.
			explain(c.From)
			explain(c.To)
		}
	}
	return out
}

// Stats returns the static analysis summary.
func (p *Program) Stats() Stats {
	s := p.unit.Stats()
	out := Stats{
		Pointers: s.Ptrs, Safe: s.Safe, Seq: s.Seq, Wild: s.Wild, Rtti: s.Rtti,
		PctSafe: s.PctSafe(), PctSeq: s.PctSeq(), PctWild: s.PctWild(), PctRtti: s.PctRtti(),
		Casts: s.Casts, Identity: s.Identity, Upcasts: s.Upcasts,
		Downcasts: s.Downcasts, SeqCasts: s.SeqCasts, BadCasts: s.Bad,
		Trusted: s.Trusted, Alloc: s.Alloc,
		Lines: CountLines(p.unit.Source),
	}
	if sp := p.unit.Res.Split; sp != nil {
		out.SplitPointers = sp.Stats.SplitPtrs
		out.MetaPointers = sp.Stats.MetaPtrs
		out.PctSplit = sp.Stats.PctSplit()
		out.PctMeta = sp.Stats.PctMeta()
	}
	for _, n := range p.unit.Cured.ChecksInserted {
		out.ChecksInserted += n
	}
	if o := p.unit.Cured.Opt; o != nil {
		out.ChecksEliminated = o.Eliminated
		out.ChecksCoalesced = o.Coalesced
		out.ChecksHoisted = o.Hoisted
		out.ChecksWidened = o.Widened
	}
	return out
}

// CastReport describes one classified cast site (for security review: the
// paper advises starting a review of bind at its trusted casts).
type CastReport struct {
	Pos     string
	From    string
	To      string
	Class   string
	Trusted bool
}

// Casts returns every pointer-cast site with its classification.
func (p *Program) Casts() []CastReport {
	var out []CastReport
	for _, c := range p.unit.Res.Casts {
		if c.Class == infer.CastNonPtr {
			continue
		}
		out = append(out, CastReport{
			Pos:     c.Pos.String(),
			From:    c.From.String(),
			To:      c.To.String(),
			Class:   c.Class.String(),
			Trusted: c.Trusted,
		})
	}
	return out
}

// Diagnostics returns the warnings and notes from all phases, rendered.
func (p *Program) Diagnostics() []string {
	var out []string
	for _, d := range p.unit.Diags.All() {
		out = append(out, d.String())
	}
	return out
}

// DumpCured writes a readable rendering of the instrumented program.
func (p *Program) DumpCured(w io.Writer) { cil.Print(w, p.unit.Cured.Prog) }

// DumpRaw writes a readable rendering of the uninstrumented program.
func (p *Program) DumpRaw(w io.Writer) { cil.Print(w, p.unit.Raw) }

// CountLines counts non-blank source lines (the paper's "lines of code").
func CountLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}
