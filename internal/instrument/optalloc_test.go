package instrument_test

import (
	"runtime"
	"testing"

	"gocured/internal/core"
	"gocured/internal/corpus"
	"gocured/internal/infer"
	"gocured/internal/instrument"
)

// curedCorpus builds every corpus program at -O0: cured, not optimized.
func curedCorpus(tb testing.TB) []*instrument.Cured {
	tb.Helper()
	var out []*instrument.Cured
	for _, p := range corpus.All() {
		u, err := core.Build(p.Name+".c", p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts, NoOptimize: true})
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		out = append(out, u.Cured)
	}
	return out
}

// TestOptimizeAllocation bounds the bytes the check optimizer allocates
// over one pass of the corpus (best of three). Integer fact IDs, bitset
// availability and storage reused across functions brought it from
// 4.07 MB to 1.76 MB (1,848,160 bytes with go1.24 on linux/amd64); the
// limit is that plus 25%.
func TestOptimizeAllocation(t *testing.T) {
	var best uint64
	for i := 0; i < 3; i++ {
		cs := curedCorpus(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, c := range cs {
			instrument.Optimize(c)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
			best = n
		}
	}
	t.Logf("Optimize over the corpus allocates %.2f MB (%d bytes)", float64(best)/(1<<20), best)
	const limit = 2_310_000
	if best > limit {
		t.Errorf("Optimize over the corpus allocates %.2f MB, want <= %.2f MB", float64(best)/(1<<20), float64(limit)/(1<<20))
	}
}

// BenchmarkOptimize times the check optimizer over the whole corpus; the
// cured -O0 programs it starts from are rebuilt outside the timer.
func BenchmarkOptimize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cs := curedCorpus(b)
		b.StartTimer()
		for _, c := range cs {
			instrument.Optimize(c)
		}
	}
}
