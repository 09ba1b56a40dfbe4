package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"gocured"
	"gocured/internal/cil"
	"gocured/internal/core"
	"gocured/internal/interp"
	"gocured/internal/vm"
)

// compileSamples is how many timed compiles (one in each of the first
// passes, at a seeded position) are run afterwards and checked against the
// reference outputs.
const compileSamples = 4

// measure runs units of work until the next one would end past the
// deadline (at least one) and returns the wall time they took.
func measure(seconds float64, unit func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; ; i++ {
		unit(i)
		el := time.Since(t0).Seconds()
		if el+el/float64(i+1) > seconds {
			return time.Since(t0)
		}
	}
}

// goStats is a snapshot of the Go runtime's cumulative allocation and GC
// counters.
type goStats struct {
	alloc, mallocs, gcs uint64
	gcCPU, totalCPU     float64
}

// goRuntime sums the Go runtime's work over the untraced ops of a traced
// library run.
type goRuntime struct {
	ms      runtime.MemStats
	samples []metrics.Sample
	sum, at goStats
	ops     int
}

func newGoRuntime() *goRuntime {
	return &goRuntime{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

func (g *goRuntime) read() goStats {
	runtime.ReadMemStats(&g.ms)
	metrics.Read(g.samples)
	return goStats{g.ms.TotalAlloc, g.ms.Mallocs, uint64(g.ms.NumGC), g.samples[0].Value.Float64(), g.samples[1].Value.Float64()}
}

func (g *goRuntime) start() { g.at = g.read() }

func (g *goRuntime) stop() {
	now := g.read()
	g.sum.alloc += now.alloc - g.at.alloc
	g.sum.mallocs += now.mallocs - g.at.mallocs
	g.sum.gcs += now.gcs - g.at.gcs
	g.sum.gcCPU += now.gcCPU - g.at.gcCPU
	g.sum.totalCPU += now.totalCPU - g.at.totalCPU
	g.ops++
}

// report stores allocation per op, GC cycles per pass of n programs and
// the GC's share of the process's CPU time.
func (g *goRuntime) report(layers map[string]float64, n int) {
	if g.ops == 0 {
		return
	}
	layers["go.alloc_mb"] = float64(g.sum.alloc) / float64(g.ops) / (1 << 20)
	layers["go.mallocs_k"] = float64(g.sum.mallocs) / float64(g.ops) / 1000
	layers["go.gc_cycles"] = float64(g.sum.gcs) / float64(g.ops) * float64(n)
	if g.sum.totalCPU > 0 {
		layers["go.gc_cpu_pct"] = 100 * g.sum.gcCPU / g.sum.totalCPU
	}
}

// libraryOp times one op of a library workload; it returns the op's time
// in ms and whether it succeeded.
type libraryOp func(pass, i int, p *benchProgram) (float64, bool)

// measurePasses runs the measured phase as whole seeded-order passes. In a
// traced run each untraced op is paired with its traced replica, run back
// to back so both see the same machine conditions, and in alternating
// order so neither side always gets the warm caches. The tracing overhead
// is the median over the pairs where both succeeded of the traced op's
// time over the untraced op's; the median keeps a GC cycle that lands on
// one side of a pair from moving it.
func measurePasses(o *outcome, rc runConfig, rng *rand.Rand, progs []*benchProgram, untraced, traced libraryOp) (wall time.Duration, overhead float64) {
	var ratios []float64
	wall = measure(rc.seconds, func(pass int) {
		n0, t0, cpu0 := len(o.lat), time.Now(), selfCPUSeconds()
		defer func() {
			o.windows = append(o.windows, window{ops: len(o.lat) - n0, secs: time.Since(t0).Seconds(), cpu: selfCPUSeconds() - cpu0})
		}()
		for i, p := range passOrder(rng, progs) {
			if traced == nil {
				untraced(pass, i, p)
				continue
			}
			var du, dt float64
			var okU, okT bool
			if (pass+i)%2 == 0 {
				du, okU = untraced(pass, i, p)
				dt, okT = traced(pass, i, p)
			} else {
				dt, okT = traced(pass, i, p)
				du, okU = untraced(pass, i, p)
			}
			if okU && okT && du > 0 {
				ratios = append(ratios, dt/du)
			}
		}
	})
	if len(ratios) > 0 {
		overhead = median(ratios) - 1
	}
	return wall, overhead
}

// traceSummary turns a traced library run's spans into layer times (mean
// self time per op) and checks the replica guard's time half: the spans
// must cover the traced ops, and the traced ops must cost what the
// untraced ones do, within guardTolerance.
func traceSummary(o *outcome, rec *recorder, names []string, overhead float64, spanFile string) {
	self, roots, covered := rec.selfTimes()
	for _, n := range names {
		o.layers[n+"_ms"] = ms(self[n]) / float64(rec.ops)
	}
	o.layers["bench.trace_overhead_pct"] = 100 * overhead
	coverage := float64(covered) / float64(roots)
	o.note("trace: ops=%d span_coverage=%.4f overhead_pct=%.2f spans=%s", rec.ops, coverage, 100*overhead, spanFile)
	switch {
	case coverage < minCoverage:
		o.setGuardErr(fmt.Errorf("layer spans cover %.1f%% of the traced ops, want at least %.0f%%", 100*coverage, 100*minCoverage))
	case overhead > guardTolerance || overhead < -guardTolerance:
		o.setGuardErr(fmt.Errorf("traced ops take %+.1f%% of the untraced time, beyond ±%.0f%%: the replica no longer matches core", 100*overhead, 100*guardTolerance))
	}
	if err := rec.writeSpans(spanFile); err != nil {
		o.setGuardErr(err)
	}
}

func (o *outcome) setGuardErr(err error) {
	if o.guardErr == nil {
		o.guardErr = err
	}
}

func spanPath(rc runConfig) string {
	return filepath.Join(rc.outDir, fmt.Sprintf("spans-%s-seed%d.json", rc.workload, rc.seed))
}

// compileWorkload times gocured.Compile of every program in whole
// seeded-order passes. Set-up is one such pass, done setupReps times.
func compileWorkload(progs []*benchProgram, rc runConfig) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	rng := rand.New(rand.NewSource(rc.seed))
	ref := make(map[*benchProgram]gocured.Stats, len(progs))
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for _, p := range passOrder(rng, progs) {
			prog, err := gocured.Compile(p.file, p.src, p.opts)
			if err != nil {
				return nil, fmt.Errorf("set-up: compile %s: %w", p.name, err)
			}
			if rep == 0 {
				ref[p] = prog.Stats()
			}
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	sampleAt := map[[2]int]bool{}
	for pass := 0; pass < compileSamples; pass++ {
		sampleAt[[2]int{pass, rng.Intn(len(progs))}] = true
	}
	type sample struct {
		p    *benchProgram
		prog *gocured.Program
	}
	var samples []sample
	perProg := map[string][]float64{}
	gort := newGoRuntime()
	untraced := func(pass, i int, p *benchProgram) (float64, bool) {
		o.attempted++
		if rc.trace {
			gort.start()
		}
		t0 := time.Now()
		prog, err := gocured.Compile(p.file, p.src, p.opts)
		d := ms(time.Since(t0))
		if rc.trace {
			gort.stop()
		}
		if err != nil {
			o.fail("compile %s: %v", p.name, err)
			return 0, false
		}
		o.lat = append(o.lat, d)
		perProg[p.name] = append(perProg[p.name], d)
		if sampleAt[[2]int{pass, i}] {
			samples = append(samples, sample{p, prog})
		}
		return d, true
	}

	var traced libraryOp
	var rec *recorder
	var lines, instrs, pointers, inserted, removed int
	if rc.trace {
		rec = newRecorder()
		traced = func(pass, _ int, p *benchProgram) (float64, bool) {
			o.attempted++
			var u *core.Unit
			var err error
			rec.do("compile "+p.name, func() { u, err = replicaBuild(rec, p) })
			d := ms(rec.lastRoot())
			if err != nil {
				o.fail("replica compile %s: %v", p.name, err)
				return 0, false
			}
			st := replicaStats(u)
			if st != ref[p] {
				o.failed++
				o.setGuardErr(fmt.Errorf("replica of %s: Stats differ from gocured.Compile", p.name))
			}
			lines += gocured.CountLines(p.src)
			if pass == 0 {
				instrs += instrCount(u.Raw)
				pointers += st.Pointers
				inserted += st.ChecksInserted
				removed += st.ChecksEliminated + st.ChecksCoalesced
			}
			return d, true
		}
	}

	runtime.GC()
	wall, overhead := measurePasses(o, rc, rng, progs, untraced, traced)
	o.wall = wall.Seconds()
	o.rssMB = peakRSSMB("self")

	for _, s := range samples {
		res, err := s.prog.Run(gocured.ModeCured, gocured.RunOptions{})
		if err != nil || !s.p.matches(res.Stdout, res.ExitCode, res.Trapped) || s.prog.Stats() != ref[s.p] {
			o.fail("sampled compile of %s does not reproduce the reference (err=%v)", s.p.name, err)
		}
	}
	o.note("checked: %d sampled compiles run against the reference outputs", len(samples))
	if !rc.trace {
		return o, nil
	}
	names := make([]string, len(compileLayers))
	for i, l := range compileLayers {
		names[i] = l.name
	}
	traceSummary(o, rec, names, overhead, spanPath(rc))
	self, _, _ := rec.selfTimes()
	if parse := self["cparse.parse"].Seconds(); parse > 0 {
		o.layers["cparse.klines_per_s"] = float64(lines) / 1000 / parse
	}
	o.layers["cil.instrs"] = float64(instrs)
	o.layers["infer.pointers"] = float64(pointers)
	o.layers["instrument.checks_inserted"] = float64(inserted)
	o.layers["instrument.checks_removed"] = float64(removed)
	for name, ds := range perProg {
		o.layers[name+".compile_ms"] = median(ds)
	}
	gort.report(o.layers, len(progs))
	return o, nil
}

// executeWorkload times one cured Program.Run per op over programs
// compiled in set-up, in whole seeded-order passes. Set-up compiles every
// program and its bytecode (a one-step run builds it, as the first run of
// a Program does), setupReps times.
func executeWorkload(progs []*benchProgram, rc runConfig) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	rng := rand.New(rand.NewSource(rc.seed))
	compiled := make(map[*benchProgram]*gocured.Program, len(progs))
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for _, p := range passOrder(rng, progs) {
			prog, err := gocured.Compile(p.file, p.src, p.opts)
			if err != nil {
				return nil, fmt.Errorf("set-up: compile %s: %w", p.name, err)
			}
			if _, err := prog.Run(gocured.ModeCured, gocured.RunOptions{StepLimit: 1}); err != nil {
				return nil, fmt.Errorf("set-up: bytecode for %s: %w", p.name, err)
			}
			compiled[p] = prog
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}

	perProg := map[string][]float64{}
	last := map[*benchProgram]*gocured.Result{}
	gort := newGoRuntime()
	untraced := func(_, _ int, p *benchProgram) (float64, bool) {
		o.attempted++
		if rc.trace {
			gort.start()
		}
		t0 := time.Now()
		res, err := compiled[p].Run(gocured.ModeCured, gocured.RunOptions{})
		d := ms(time.Since(t0))
		if rc.trace {
			gort.stop()
		}
		if err == nil && !p.matches(res.Stdout, res.ExitCode, res.Trapped) {
			err = errMismatch
		}
		if err != nil {
			o.fail("run %s: %v", p.name, err)
			return 0, false
		}
		o.lat = append(o.lat, d)
		perProg[p.name] = append(perProg[p.name], d)
		if rc.trace {
			last[p] = res
		}
		return d, true
	}

	var traced libraryOp
	var rec *recorder
	var steps, checks, cycles, accesses, allSteps uint64
	var byKind [cil.NumCheckKinds]uint64
	if rc.trace {
		// The replica builds its own units and bytecode in set-up; only
		// the bytecode compile is timed.
		units := map[*benchProgram]*core.Unit{}
		codes := map[*benchProgram]*vm.Module{}
		vmRec := newRecorder()
		for _, p := range progs {
			u, err := replicaBuild(nil, p)
			if err != nil {
				return nil, fmt.Errorf("set-up: replica compile %s: %w", p.name, err)
			}
			if replicaStats(u) != compiled[p].Stats() {
				o.setGuardErr(fmt.Errorf("replica of %s: Stats differ from gocured.Compile", p.name))
			}
			units[p], codes[p] = u, replicaCode(vmRec, u)
		}
		self, _, _ := vmRec.selfTimes()
		o.layers["vm.compile_ms"] = ms(self["vm.compile"]) / float64(len(progs))

		rec = newRecorder()
		traced = func(pass, _ int, p *benchProgram) (float64, bool) {
			o.attempted++
			var out *interp.Outcome
			var err error
			rec.do("run "+p.name, func() { out, err = replicaRun(rec, units[p], codes[p]) })
			d := ms(rec.lastRoot())
			if err == nil && !p.matches(out.Stdout, out.ExitCode, out.Trap != nil) {
				err = errMismatch
			}
			if err != nil {
				o.fail("replica run %s: %v", p.name, err)
				return 0, false
			}
			if res := last[p]; res != nil {
				if diff := sameRun(out, res); diff != "" {
					o.failed++
					o.setGuardErr(fmt.Errorf("replica run of %s differs from Program.Run in %s", p.name, diff))
				}
			}
			allSteps += out.Counters.Steps
			if pass == 0 {
				steps += out.Counters.Steps
				checks += out.Counters.Checks
				cycles += out.Counters.Cost
				accesses += out.MemLoads + out.MemStores
				for k := range byKind {
					byKind[k] += out.Counters.ChecksByKind[k]
				}
			}
			return d, true
		}
	}

	runtime.GC()
	wall, overhead := measurePasses(o, rc, rng, progs, untraced, traced)
	o.wall = wall.Seconds()
	o.rssMB = peakRSSMB("self")
	o.note("checked: every run against the reference outputs")
	if !rc.trace {
		return o, nil
	}
	traceSummary(o, rec, []string{"interp.init", "interp.execute"}, overhead, spanPath(rc))
	self, _, _ := rec.selfTimes()
	if allSteps > 0 {
		o.layers["interp.ns_per_step"] = float64(self["interp.execute"].Nanoseconds()) / float64(allSteps)
	}
	o.layers["interp.steps"] = float64(steps)
	o.layers["interp.checks"] = float64(checks)
	o.layers["interp.sim_cycles"] = float64(cycles)
	o.layers["mem.accesses"] = float64(accesses)
	for k, n := range byKind {
		o.layers["interp.checks."+cil.CheckKind(k).String()] = float64(n)
	}
	for name, ds := range perProg {
		o.layers[name+".run_ms"] = median(ds)
	}
	gort.report(o.layers, len(progs))
	return o, nil
}
