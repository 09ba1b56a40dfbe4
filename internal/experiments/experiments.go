// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the gocured corpus. Each experiment returns a Table
// with the measured values next to the paper's published numbers; the
// bench harness (bench_test.go) and cmd/ccbench drive them.
//
// All compilation and execution is dispatched through a pipeline.Runner:
// rows of a table build and run concurrently (bounded by Config.Jobs
// workers) and repeated builds of the same (source, options) pair — common
// across experiments, e.g. bind appears in E1, E3, E7 and E8 — are served
// from the Runner's content-addressed cache.
//
// Absolute numbers differ from the paper — our substrate is an interpreter
// over simulated memory, not gcc on a 2003 machine — but the shapes are
// preserved: CCured's type-directed checks cost a fraction of the
// shadow-memory tools, RTTI rescues the ijpeg-style downcast-heavy code
// from WILD, and split types are cheap except for pointer-dense code.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/pipeline"
)

// Config tunes experiment cost.
type Config struct {
	// Scale overrides the corpus SCALE constant (0 keeps the source value).
	Scale int
	// Jobs bounds concurrent curing/execution jobs (0 = runtime.NumCPU()).
	// It is ignored when Runner is set.
	Jobs int
	// Runner, if non-nil, dispatches all work; otherwise each experiment
	// creates its own. All sets it so the nine experiments share one
	// compile cache.
	Runner *pipeline.Runner
}

// runner returns the configured Runner or builds one from Jobs.
func (c Config) runner() *pipeline.Runner {
	if c.Runner != nil {
		return c.Runner
	}
	return pipeline.NewRunner(pipeline.RunnerOptions{Workers: c.Jobs})
}

// Table is one reproduced table/figure.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		for _, line := range strings.Split(t.Note, "\n") {
			fmt.Fprintf(&b, "   %s\n", line)
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// All runs every experiment over one shared Runner (and therefore one
// shared compile cache).
func All(cfg Config) []*Table {
	cfg.Runner = cfg.runner()
	return []*Table{
		CastClassification(cfg),
		Fig8Apache(cfg),
		Fig9System(cfg),
		IjpegRTTI(cfg),
		MicroSuite(cfg),
		SplitOverhead(cfg),
		BindCasts(cfg),
		SplitStats(cfg),
		Exploits(cfg),
	}
}

// ---- shared plumbing ----

// built is one cured corpus program, held by its pipeline artifacts.
type built struct {
	r     *pipeline.Runner
	prog  *corpus.Program
	src   string
	opts  gocured.Options
	stats gocured.Stats
	lines int
}

func mustBuild(r *pipeline.Runner, p *corpus.Program, opts gocured.Options, scale int) *built {
	src := p.Source
	if scale > 0 {
		src = corpus.WithScale(p, scale)
	}
	res := r.Compile(context.Background(), p.Name+".c", src, opts)
	if res.Err != nil {
		panic(fmt.Sprintf("experiments: build %s: %v", p.Name, res.Err))
	}
	return &built{r: r, prog: p, src: src, opts: opts, stats: res.Stats, lines: res.Stats.Lines}
}

func defaultOpts(p *corpus.Program) gocured.Options {
	return gocured.Options{TrustBadCasts: p.TrustBadCasts}
}

// run executes the program once in a mode through the Runner.
func (b *built) run(mode gocured.Mode, ro gocured.RunOptions) (*gocured.Result, error) {
	res := b.r.Do(context.Background(), pipeline.Job{
		Name:       b.prog.Name + ".c",
		Source:     b.src,
		Options:    b.opts,
		Run:        true,
		Mode:       mode,
		RunOptions: ro,
	})
	if res.Err != nil {
		return nil, res.Err
	}
	return res.Run, nil
}

// cost executes the program once under a mode and returns the
// deterministic simulated-cycle count. Experiment tables use cost ratios:
// reproducible run to run, unlike wall time over an interpreter, while
// wall-clock behaviour is still exercised by bench_test.go.
func (b *built) cost(mode gocured.Mode) uint64 {
	out, err := b.run(mode, gocured.RunOptions{})
	if err != nil {
		panic(fmt.Sprintf("experiments: run %s/%s: %v", b.prog.Name, mode, err))
	}
	if out.Trapped {
		panic(fmt.Sprintf("experiments: %s trapped under %s: %s", b.prog.Name, mode, out.TrapMessage))
	}
	return out.SimCycles
}

// eachRow computes n table rows concurrently. Row goroutines block in the
// Runner's worker pool, so parallelism stays bounded by Config.Jobs while
// row order is preserved.
func eachRow(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func pctStr(f float64) string { return fmt.Sprintf("%.0f", f) }

// kindCols renders the sf/sq/w/rt column of Figures 8 and 9.
func kindCols(s gocured.Stats) string {
	return fmt.Sprintf("%s/%s/%s/%s",
		pctStr(s.PctSafe), pctStr(s.PctSeq), pctStr(s.PctWild), pctStr(s.PctRtti))
}
