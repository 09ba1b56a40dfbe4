package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"gocured"
	"gocured/internal/cil"
	"gocured/internal/core"
	"gocured/internal/cparse"
	"gocured/internal/diag"
	"gocured/internal/flight"
	"gocured/internal/infer"
	"gocured/internal/instrument"
	"gocured/internal/interp"
	"gocured/internal/sema"
	"gocured/internal/trace"
	"gocured/internal/vm"
)

// span is one timed call: offsets from the recorder's epoch, the index of
// the enclosing span (-1 for an op's root), the op it belongs to and the
// lane (connection) that ran it.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op         int
	lane       int
}

// recorder keeps spans in memory until the run ends. A nil recorder only
// calls through, so set-up work can share the replica untimed.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	} else {
		r.ops++
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent, op: r.ops})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].end = time.Since(r.epoch)
}

func (r *recorder) do(name string, fn func()) {
	r.begin(name)
	fn()
	r.end()
}

// lastRoot returns the most recently closed root span's duration.
func (r *recorder) lastRoot() time.Duration {
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].parent < 0 {
			return r.spans[i].end - r.spans[i].start
		}
	}
	return 0
}

// selfTimes sums each span name's self time (its duration minus the part
// its children cover) and returns it with the total duration of the root
// spans and of their direct children.
func (r *recorder) selfTimes() (self map[string]time.Duration, roots, covered time.Duration) {
	self = map[string]time.Duration{}
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		d := s.end - s.start
		self[s.name] += d - child[i]
		if s.parent < 0 {
			roots += d
			covered += child[i]
		}
	}
	return self, roots, covered
}

// maxSpanOps bounds the ops written to the span file, so a serve run's
// tens of thousands of requests do not produce a file of tens of MB. All
// ops still count toward the metrics.
const maxSpanOps = 5000

// writeSpans writes the spans as Chrome trace-event JSON, one track per
// lane, through the exporter behind the repo's /traces/{id}, and checks
// the file with the exporter's own validator.
func (r *recorder) writeSpans(path string) error {
	lanes := map[int][]trace.Span{}
	depth := make([]int, len(r.spans))
	for i, s := range r.spans {
		if s.op > maxSpanOps {
			break
		}
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		lanes[s.lane] = append(lanes[s.lane], trace.Span{Name: s.name, StartMS: ms(s.start), DurMS: ms(s.end - s.start), Depth: depth[i]})
	}
	file := struct {
		TraceEvents     []flight.TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string              `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms"}
	for lane := 0; lane < len(lanes); lane++ {
		var buf bytes.Buffer
		args := map[string]any{"ops": r.ops, "ops_written": min(r.ops, maxSpanOps)}
		if err := flight.WriteSpanTrace(&buf, fmt.Sprintf("perfbench lane %d", lane), lanes[lane], args); err != nil {
			return err
		}
		var track struct {
			TraceEvents []flight.TraceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &track); err != nil {
			return err
		}
		for _, ev := range track.TraceEvents {
			ev.Tid = lane + 1
			file.TraceEvents = append(file.TraceEvents, ev)
		}
	}
	data, err := json.Marshal(file)
	if err != nil {
		return err
	}
	if _, err := flight.ValidateTrace(data); err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return os.WriteFile(path, data, 0o644)
}

func inferOptions(o gocured.Options) infer.Options {
	return infer.Options{
		NoRTTI:              o.NoRTTI,
		NoPhysicalSubtyping: o.NoPhysicalSubtyping,
		TrustBadCasts:       o.TrustBadCasts,
		SplitAll:            o.ForceSplitAll,
		NoOptimize:          o.NoOptimize,
	}
}

// replicaBuild is core.BuildStored without a summary source, with a span
// around each public layer call. It must stay in step with core: the
// replica guard compares its Stats with gocured.Compile's and its time
// with the untraced compile's.
func replicaBuild(rec *recorder, p *benchProgram) (*core.Unit, error) {
	opts := inferOptions(p.opts)
	u := &core.Unit{Filename: p.file, Source: p.src, Diags: &diag.List{}}
	var err error
	rec.do("core.frontend_raw", func() { u.Raw, err = replicaFrontend(nil, p, u.Diags) })
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	prog, err := replicaFrontend(rec, p, &diag.List{})
	if err != nil {
		return nil, fmt.Errorf("frontend (cure pass): %w", err)
	}
	rec.do("instrument.redirect", func() { instrument.RedirectWrappers(prog, u.Diags) })
	rec.do("infer.infer", func() { u.Res, u.Incr = infer.InferIncremental(prog, opts, u.Diags, nil) })
	rec.do("instrument.cure", func() { u.Cured = instrument.Cure(prog, u.Res, u.Diags) })
	if !opts.NoOptimize {
		rec.do("instrument.optimize", func() { instrument.Optimize(u.Cured) })
	}
	rec.do("instrument.sites", func() { instrument.AssignSites(u.Cured) })
	if u.Diags.HasErrors() {
		return nil, u.Diags.Err()
	}
	return u, nil
}

// replicaFrontend is core's parse/check/lower; rec is nil for the raw pass,
// which core times as one span.
func replicaFrontend(rec *recorder, p *benchProgram, diags *diag.List) (*cil.Program, error) {
	var file *cparse.File
	rec.do("cparse.parse", func() { file = cparse.Parse(p.file, p.src, diags) })
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	var unit *sema.Unit
	rec.do("sema.check", func() { unit = sema.Check(file, diags) })
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	var prog *cil.Program
	rec.do("cil.lower", func() { prog = cil.Lower(unit, diags) })
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	return prog, nil
}

// replicaCode compiles the cured program's bytecode, as Unit.RunCured does
// on first use.
func replicaCode(rec *recorder, u *core.Unit) *vm.Module {
	var code *vm.Module
	rec.do("vm.compile", func() { code = vm.Compile(u.Cured.Prog, u.Cured.Lay) })
	return code
}

// replicaRun is Unit.RunCured on the VM backend at gocured's default run
// options, with spans around machine construction and execution.
func replicaRun(rec *recorder, u *core.Unit, code *vm.Module) (*interp.Outcome, error) {
	cfg := interp.Config{Policy: interp.PolicyCured, Cured: u.Cured, Backend: interp.BackendVM, Code: code}
	var m *interp.Machine
	rec.do("interp.init", func() { m = interp.New(u.Cured.Prog, cfg) })
	var out *interp.Outcome
	var err error
	rec.do("interp.execute", func() { out, err = m.Run() })
	return out, err
}

// replicaStats is gocured.Program.Stats over a replica unit.
func replicaStats(u *core.Unit) gocured.Stats {
	s := u.Stats()
	out := gocured.Stats{
		Pointers: s.Ptrs, Safe: s.Safe, Seq: s.Seq, Wild: s.Wild, Rtti: s.Rtti,
		PctSafe: s.PctSafe(), PctSeq: s.PctSeq(), PctWild: s.PctWild(), PctRtti: s.PctRtti(),
		Casts: s.Casts, Identity: s.Identity, Upcasts: s.Upcasts,
		Downcasts: s.Downcasts, SeqCasts: s.SeqCasts, BadCasts: s.Bad,
		Trusted: s.Trusted, Alloc: s.Alloc,
		Lines: gocured.CountLines(u.Source),
	}
	if sp := u.Res.Split; sp != nil {
		out.SplitPointers = sp.Stats.SplitPtrs
		out.MetaPointers = sp.Stats.MetaPtrs
		out.PctSplit = sp.Stats.PctSplit()
		out.PctMeta = sp.Stats.PctMeta()
	}
	for _, n := range u.Cured.ChecksInserted {
		out.ChecksInserted += n
	}
	if o := u.Cured.Opt; o != nil {
		out.ChecksEliminated = o.Eliminated
		out.ChecksCoalesced = o.Coalesced
		out.ChecksHoisted = o.Hoisted
		out.ChecksWidened = o.Widened
	}
	return out
}

// sameRun reports how a replica run differs from gocured's Run of the same
// program ("" when it does not): output, exit, trap and every counter,
// executed checks per kind included.
func sameRun(out *interp.Outcome, res *gocured.Result) string {
	switch {
	case out.Stdout != res.Stdout:
		return "stdout"
	case out.ExitCode != res.ExitCode:
		return "exit code"
	case (out.Trap != nil) != res.Trapped:
		return "trap"
	case out.Counters.Steps != res.Steps:
		return "steps"
	case out.Counters.Checks != res.Checks:
		return "checks"
	case out.Counters.Cost != res.SimCycles:
		return "sim cycles"
	case out.MemLoads+out.MemStores != res.MemAccesses:
		return "memory accesses"
	}
	byKind := map[string]uint64{}
	for _, s := range res.CheckSites {
		byKind[s.Kind] += s.Hits
	}
	for k := 0; k < cil.NumCheckKinds; k++ {
		if out.Counters.ChecksByKind[k] != byKind[cil.CheckKind(k).String()] {
			return "checks of kind " + cil.CheckKind(k).String()
		}
	}
	return ""
}

// instrCount counts the IR instructions of a lowered program.
func instrCount(prog *cil.Program) int {
	n := 0
	for _, f := range prog.Funcs {
		cil.WalkInstrs(f.Body.Stmts, func(cil.Instr) { n++ })
	}
	return n
}
