package interp_test

import (
	"runtime"
	"testing"

	"gocured/internal/core"
	"gocured/internal/corpus"
	"gocured/internal/infer"
	"gocured/internal/interp"
	"gocured/internal/vm"
)

// initConfig builds one corpus program and its bytecode, and returns the
// configuration that makes interp.New do only machine init.
func initConfig(tb testing.TB, name string) interp.Config {
	tb.Helper()
	p := corpus.ByName(name)
	u, err := core.Build(name+".c", p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts})
	if err != nil {
		tb.Fatalf("build %s: %v", name, err)
	}
	return interp.Config{Policy: interp.PolicyCured, Cured: u.Cured,
		Code: vm.Compile(u.Cured.Prog, u.Cured.Lay)}
}

// Machine init allocates the simulated arena once: the bytes interp.New
// allocates stay within a small multiple of the arena it hands back (a
// per-byte grow of the 1 MiB stack reservation allocated over 5x).
func TestMachineInitAllocation(t *testing.T) {
	cfg := initConfig(t, "olden-bisort")
	var arena int
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		m := interp.New(cfg.Cured.Prog, cfg)
		runtime.ReadMemStats(&after)
		arena = m.ArenaSize()
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := 3 * uint64(arena); best > limit {
		t.Fatalf("interp.New allocated %d bytes for a %d-byte arena, want at most %d", best, arena, limit)
	}
	t.Logf("interp.New allocated %d bytes for a %d-byte arena", best, arena)
}

var machineSink *interp.Machine

// BenchmarkMachineInit times interp.New alone: globals, the stack
// reservation and the builtin table, with the bytecode compiled once
// outside the loop.
func BenchmarkMachineInit(b *testing.B) {
	cfg := initConfig(b, "olden-bisort")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machineSink = interp.New(cfg.Cured.Prog, cfg)
	}
}

// runAllocBound is the allocation count of one cured olden-treeadd run
// when every VM register was a pooled []Value slot.
const runAllocBound = 39099

// One cured corpus run allocates no more than it did with pooled []Value
// register files: the register banks are pooled with their frames, so a
// deep call chain reuses them instead of allocating per call.
func TestRunAllocationBound(t *testing.T) {
	cfg := initConfig(t, "olden-treeadd")
	allocs := testing.AllocsPerRun(5, func() {
		out, err := interp.New(cfg.Cured.Prog, cfg).Run()
		if err != nil || out.Trap != nil {
			t.Fatalf("run: %v %v", err, out.Trap)
		}
	})
	if allocs > runAllocBound {
		t.Fatalf("one cured olden-treeadd run allocated %.0f times, want at most %d", allocs, runAllocBound)
	}
	t.Logf("%.0f allocations per run (bound %d)", allocs, runAllocBound)
}
