package pipeline

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/store"
)

func openArtifacts(t *testing.T, dir string) *store.Artifacts {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store.NewArtifacts(s, gocured.Version, "go-test")
}

// TestRunnerWarmRestart is the tentpole's pipeline-level guarantee: two
// Runner lifetimes (two "server processes") sharing one store directory,
// where the second serves the full corpus compile workload without
// re-collecting a single storable function.
func TestRunnerWarmRestart(t *testing.T) {
	dir := t.TempDir()
	jobs := CorpusCompileJobs(0)

	r1 := NewRunner(RunnerOptions{Workers: 4, Store: openArtifacts(t, dir)})
	for _, res := range r1.DoAll(context.Background(), jobs) {
		if res.Err != nil {
			t.Fatalf("cold %s: %v", res.Name, res.Err)
		}
		if res.Incr.Loaded != 0 {
			t.Fatalf("cold %s loaded %d functions from an empty store", res.Name, res.Incr.Loaded)
		}
	}

	// A fresh Runner: the memory cache is gone, only the disk tier remains.
	r2 := NewRunner(RunnerOptions{Workers: 4, Store: openArtifacts(t, dir)})
	var recured, loaded, unstorable int
	for _, res := range r2.DoAll(context.Background(), jobs) {
		if res.Err != nil {
			t.Fatalf("warm %s: %v", res.Name, res.Err)
		}
		if res.CacheHit {
			t.Fatalf("warm %s unexpectedly hit the fresh memory cache", res.Name)
		}
		recured += res.Incr.Recured
		loaded += res.Incr.Loaded
		unstorable += res.Incr.Unstorable
	}
	if recured != unstorable {
		t.Errorf("warm restart re-collected %d functions beyond the %d unstorable ones", recured-unstorable, unstorable)
	}
	if loaded == 0 {
		t.Error("warm restart loaded nothing from the store")
	}

	m := r2.Metrics()
	if m.Store == nil {
		t.Fatal("Metrics.Store nil with a store configured")
	}
	if m.Store.Hits == 0 || m.Store.Chunks == 0 || m.Store.Bytes == 0 {
		t.Errorf("store metrics not populated: %+v", *m.Store)
	}
	if int(m.FuncsLoaded) != loaded || int(m.FuncsRecured) != recured {
		t.Errorf("metrics funcs loaded/recured = %d/%d, want %d/%d", m.FuncsLoaded, m.FuncsRecured, loaded, recured)
	}
}

// TestStoredCompileIdentical asserts the store changes performance, never
// results: cold (writing), warm (replaying), and store-less compiles of the
// same job agree on stats, diagnostics, and execution behaviour.
func TestStoredCompileIdentical(t *testing.T) {
	dir := t.TempDir()
	jobs := CorpusJobs([]gocured.Mode{gocured.ModeCured}, 0)
	ro := gocured.RunOptions{StepLimit: 2_000_000}
	for i := range jobs {
		jobs[i].RunOptions = ro
	}

	plain := NewRunner(RunnerOptions{Workers: 4, CacheEntries: -1})
	cold := NewRunner(RunnerOptions{Workers: 4, CacheEntries: -1, Store: openArtifacts(t, dir)})
	warm := NewRunner(RunnerOptions{Workers: 4, CacheEntries: -1, Store: openArtifacts(t, dir)})

	base := plain.DoAll(context.Background(), jobs)
	for pass, r := range map[string]*Runner{"cold": cold, "warm": warm} {
		for i, res := range r.DoAll(context.Background(), jobs) {
			want := base[i]
			if (res.Err != nil) != (want.Err != nil) {
				t.Fatalf("%s %s: err %v vs %v", pass, res.Name, res.Err, want.Err)
			}
			if res.Err != nil {
				continue
			}
			if res.Stats != want.Stats {
				t.Errorf("%s %s: stats diverged from store-less compile", pass, res.Name)
			}
			if res.Run.Trapped != want.Run.Trapped || res.Run.ExitCode != want.Run.ExitCode ||
				res.Run.Stdout != want.Run.Stdout || res.Run.Checks != want.Run.Checks {
				t.Errorf("%s %s: execution diverged from store-less compile", pass, res.Name)
			}
		}
	}
}

// TestStoredEditAllocation bounds what the artifact store adds to a served
// edit. Over every corpus program with an edit point, a one-line edit
// compiled against a warm store must allocate at most 1.5x the bytes of a
// plain Compile of the same source. Body fingerprints that name structs by
// index, the flat summary codec and per-owner occurrence slices brought
// the ratio from 1.86 to 1.32 (go1.24, linux/amd64).
func TestStoredEditAllocation(t *testing.T) {
	arts := openArtifacts(t, t.TempDir())
	allocated := func(compile func() (*gocured.Program, error)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := compile()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	var stored, plain uint64
	for _, p := range corpus.All() {
		if !strings.Contains(p.Source, "int i;") {
			continue
		}
		name, opts := p.Name+".c", gocured.Options{TrustBadCasts: p.TrustBadCasts}
		if _, err := gocured.CompileStored(name, p.Source, opts, arts.ForOptions(opts)); err != nil {
			t.Fatal(err)
		}
		edited := strings.Replace(p.Source, "int i;", "int i; if (0) { i = 1; }", 1)
		stored += allocated(func() (*gocured.Program, error) {
			return gocured.CompileStored(name, edited, opts, arts.ForOptions(opts))
		})
		plain += allocated(func() (*gocured.Program, error) { return gocured.Compile(name, edited, opts) })
	}
	ratio := float64(stored) / float64(plain)
	t.Logf("warm-store edits allocate %.2fx a plain compile (%d vs %d bytes)", ratio, stored, plain)
	if ratio > 1.5 {
		t.Errorf("warm-store edits allocate %.2fx a plain compile, want <= 1.5x", ratio)
	}
}
