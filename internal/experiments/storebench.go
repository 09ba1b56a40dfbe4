package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/provenance"
	"gocured/internal/store"
)

// E12: artifact-store warmth. Every corpus program is compiled against one
// persistent chunk store, in storeReps repetitions:
//
//	cold   an empty (or pre-warmed — see the CI gate) store: per-function
//	       summaries are recorded and written as chunks
//	warm   the same source again: every storable function's constraints
//	       replay from disk instead of being re-collected
//	edit   a one-line edit to one function body: only that function (plus
//	       any unstorable ones) re-cures; the rest replay
//	plain  gocured.Compile of the edited source with no store, so the file
//	       states whether the store pays for an edit
//
// Each repetition addresses its own key space (its index is folded into the
// artifacts' version) and carries its own edit constant, so every
// repetition's cold and edit compiles are genuine. Timed columns are the
// median over the repetitions, with the slowest beside it; counts come from
// the first repetition. The warm and edit builds are verified bit-identical
// to a store-less one (same Stats) — the store changes compile time, never
// results. Running ccbench -store-json twice against the same directory is
// the CI warm-restart gate: the second run's "cold" phase is served entirely
// from the first run's chunks, so its cold_recured must equal unstorable
// (zero recompiles of storable functions across a process restart).

// storeReps is the number of repetitions behind each timed column.
const storeReps = 5

// StoreBenchRow is one program's cold/warm/edit/plain measurement. Times
// are milliseconds: the median over the repetitions, and the slowest.
type StoreBenchRow struct {
	Name  string `json:"name"`
	Funcs int    `json:"funcs"`

	ColdMS      float64 `json:"cold_ms"`
	ColdMSMax   float64 `json:"cold_ms_max"`
	ColdRecured int     `json:"cold_recured"`
	WarmMS      float64 `json:"warm_ms"`
	WarmMSMax   float64 `json:"warm_ms_max"`
	WarmLoaded  int     `json:"warm_loaded"`
	WarmRecured int     `json:"warm_recured"`
	// Unstorable functions re-cure on every compile (an operand occurrence
	// had no symbolic name); zero across today's corpus.
	Unstorable int `json:"unstorable,omitempty"`
	// WarmSpeedup is cold_ms/warm_ms (indicative wall time; the recure
	// counts are the deterministic signal).
	WarmSpeedup float64 `json:"warm_speedup"`

	// Edit phase, for programs the one-line edit applies to.
	Edited      bool    `json:"edited,omitempty"`
	EditMS      float64 `json:"edit_ms,omitempty"`
	EditMSMax   float64 `json:"edit_ms_max,omitempty"`
	PlainMS     float64 `json:"plain_ms,omitempty"`
	PlainMSMax  float64 `json:"plain_ms_max,omitempty"`
	EditRecured int     `json:"edit_recured,omitempty"`
	// EditPct is the fraction of functions re-cured by the edit (the
	// incremental-re-curing acceptance bar is < 10% for programs with at
	// least 10 functions).
	EditPct float64 `json:"edit_pct,omitempty"`
}

// StoreBench is the full artifact-store measurement, serialized to
// BENCH_store.json.
type StoreBench struct {
	// Host records the ccbench build's revision and the machine measured.
	provenance.Host
	Scale int             `json:"scale"`
	Reps  int             `json:"reps"`
	Rows  []StoreBenchRow `json:"rows"`

	TotalFuncs  int `json:"total_funcs"`
	ColdRecured int `json:"cold_recured"`
	WarmLoaded  int `json:"warm_loaded"`
	WarmRecured int `json:"warm_recured"`
	Unstorable  int `json:"unstorable"`

	EditedFuncs int     `json:"edited_funcs"`
	EditRecured int     `json:"edit_recured"`
	EditPct     float64 `json:"edit_pct"`

	GeomeanWarmSpeedup float64 `json:"geomean_warm_speedup"`
	// EditOverPlain is the summed edit_ms over the summed plain_ms: above
	// 1, an edit costs more with the store than without it.
	EditOverPlain float64 `json:"edit_over_plain"`

	// Store snapshots the chunk store after the measurement.
	Store store.Stats `json:"store"`
}

// editSource applies the canonical one-line edit with constant n: a dead
// statement spliced into one function body on an existing line, so no
// other function's fingerprint (which includes positions) shifts. Returns
// ok=false when the program has no splice point.
func editSource(src string, n int) (string, bool) {
	if !strings.Contains(src, "int i;") {
		return "", false
	}
	return strings.Replace(src, "int i;", fmt.Sprintf("int i; if (0) { i = %d; }", n), 1), true
}

// MeasureStore compiles every corpus program cold/warm/edited against the
// chunk store rooted at dir (created if needed; pass an existing directory
// to measure a pre-warmed store).
func MeasureStore(cfg Config, dir string) (*StoreBench, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	progs := corpus.All()
	bench := &StoreBench{Host: provenance.Here(), Scale: cfg.Scale, Reps: storeReps, Rows: make([]StoreBenchRow, len(progs))}
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
			bench.Rows[i] = measureStoreOne(s, p, cfg.Scale)
		}(i, p)
	}
	wg.Wait()

	logSpeedups, editMS, plainMS := 0.0, 0.0, 0.0
	for _, r := range bench.Rows {
		bench.TotalFuncs += r.Funcs
		bench.ColdRecured += r.ColdRecured
		bench.WarmLoaded += r.WarmLoaded
		bench.WarmRecured += r.WarmRecured
		bench.Unstorable += r.Unstorable
		if r.Edited {
			bench.EditedFuncs += r.Funcs
			bench.EditRecured += r.EditRecured
			editMS += r.EditMS
			plainMS += r.PlainMS
		}
		logSpeedups += math.Log(r.WarmSpeedup)
	}
	if n := len(bench.Rows); n > 0 {
		bench.GeomeanWarmSpeedup = math.Exp(logSpeedups / float64(n))
	}
	if bench.EditedFuncs > 0 {
		bench.EditPct = 100 * float64(bench.EditRecured) / float64(bench.EditedFuncs)
	}
	if plainMS > 0 {
		bench.EditOverPlain = editMS / plainMS
	}
	bench.Store = s.Stats()
	return bench, nil
}

// medianMax returns the median and the maximum of xs.
func medianMax(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return med, s[n-1]
}

func measureStoreOne(s *store.Store, p *corpus.Program, scale int) StoreBenchRow {
	src := p.Source
	if scale > 0 {
		src = corpus.WithScale(p, scale)
	}
	opts := defaultOpts(p)
	timed := func(what string, compile func() (*gocured.Program, error)) (*gocured.Program, float64) {
		t0 := time.Now()
		prog, err := compile()
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			panic(fmt.Sprintf("storebench: %s %s: %v", what, p.Name, err))
		}
		return prog, ms
	}
	row := StoreBenchRow{Name: p.Name}
	var cold, warm, edit, plain []float64
	for rep := 0; rep < storeReps; rep++ {
		sums := store.NewArtifacts(s, fmt.Sprintf("%s/rep%d", gocured.Version, rep), runtime.Version()).ForOptions(opts)
		stored := func(source string) func() (*gocured.Program, error) {
			return func() (*gocured.Program, error) { return gocured.CompileStored(p.Name+".c", source, opts, sums) }
		}
		coldProg, coldMS := timed("build", stored(src))
		warmProg, warmMS := timed("build", stored(src))
		if warmProg.Stats() != coldProg.Stats() {
			panic(fmt.Sprintf("storebench: %s warm build diverges from cold", p.Name))
		}
		cold, warm = append(cold, coldMS), append(warm, warmMS)
		if rep == 0 {
			coldIncr, warmIncr := coldProg.IncrStats(), warmProg.IncrStats()
			row.Funcs = coldIncr.Funcs
			row.ColdRecured = coldIncr.Recured
			row.WarmLoaded = warmIncr.Loaded
			row.WarmRecured = warmIncr.Recured
			row.Unstorable = warmIncr.Unstorable
		}
		edited, ok := editSource(src, rep+1)
		if !ok {
			continue
		}
		editProg, editMS := timed("build edited", stored(edited))
		plainProg, plainMS := timed("plain build edited", func() (*gocured.Program, error) {
			return gocured.Compile(p.Name+".c", edited, opts)
		})
		if editProg.Stats() != plainProg.Stats() {
			panic(fmt.Sprintf("storebench: %s edited build diverges from a store-less one", p.Name))
		}
		edit, plain = append(edit, editMS), append(plain, plainMS)
		if rep == 0 {
			row.Edited = true
			row.EditRecured = editProg.IncrStats().Recured
			if row.Funcs > 0 {
				row.EditPct = 100 * float64(row.EditRecured) / float64(row.Funcs)
			}
		}
	}
	row.ColdMS, row.ColdMSMax = medianMax(cold)
	row.WarmMS, row.WarmMSMax = medianMax(warm)
	row.WarmSpeedup = row.ColdMS / math.Max(row.WarmMS, 0.001)
	if row.Edited {
		row.EditMS, row.EditMSMax = medianMax(edit)
		row.PlainMS, row.PlainMSMax = medianMax(plain)
	}
	return row
}

// StoreWarmth renders E12 as a table, measuring against a throwaway store.
func StoreWarmth(cfg Config) *Table {
	dir, err := os.MkdirTemp("", "gocured-storebench-")
	if err != nil {
		panic(fmt.Sprintf("storebench: %v", err))
	}
	defer os.RemoveAll(dir)
	b, err := MeasureStore(cfg, dir)
	if err != nil {
		panic(fmt.Sprintf("storebench: %v", err))
	}
	t := &Table{
		ID:    "E12",
		Title: "artifact store: cold vs warm vs one-line-edit compiles",
		Note: fmt.Sprintf("median-of-%d wall times; warm replays per-function summaries from the chunk store;\n"+
			"edit re-cures only the edited function, plain compiles the edit with no store\n"+
			"(- = program has no edit point)", b.Reps),
		Header: []string{"program", "funcs", "cold ms", "warm ms", "warm recured",
			"edit ms", "plain ms", "edit recured", "edit %"},
	}
	for _, r := range b.Rows {
		editMS, plainMS, editN, editPct := "-", "-", "-", "-"
		if r.Edited {
			editMS = fmt.Sprintf("%.1f", r.EditMS)
			plainMS = fmt.Sprintf("%.1f", r.PlainMS)
			editN = fmt.Sprint(r.EditRecured)
			editPct = fmt.Sprintf("%.0f", r.EditPct)
		}
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprint(r.Funcs),
			fmt.Sprintf("%.1f", r.ColdMS), fmt.Sprintf("%.1f", r.WarmMS),
			fmt.Sprint(r.WarmRecured), editMS, plainMS, editN, editPct,
		})
	}
	t.Rows = append(t.Rows, []string{
		"TOTAL", fmt.Sprint(b.TotalFuncs), "", "",
		fmt.Sprint(b.WarmRecured), "", fmt.Sprintf("edit/plain %.2fx", b.EditOverPlain),
		fmt.Sprint(b.EditRecured), fmt.Sprintf("%.0f", b.EditPct),
	})
	return t
}

// WriteStoreBench runs MeasureStore against dir and writes the result as
// indented JSON — the BENCH_store.json artifact tracked in the repository
// and uploaded by CI.
func WriteStoreBench(cfg Config, dir, path string) (*StoreBench, error) {
	b, err := MeasureStore(cfg, dir)
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return b, os.WriteFile(path, append(data, '\n'), 0o644)
}
