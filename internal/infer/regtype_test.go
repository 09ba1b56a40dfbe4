package infer

import (
	"fmt"
	"runtime"
	"testing"

	"gocured/internal/corpus"
	"gocured/internal/qual"
	"gocured/internal/trace"
)

// corpusOpts are the inference options the build pipeline uses for p.
func corpusOpts(p *corpus.Program) Options {
	return Options{TrustBadCasts: p.TrustBadCasts}
}

// TestRegTypeRegistersOnce asserts that registration walks each type
// occurrence once per inference: no program records the same containment
// edge twice, and ijpeg's ~40-type hierarchy stays a few thousand edges.
func TestRegTypeRegistersOnce(t *testing.T) {
	for _, p := range corpus.All() {
		prog, d := lower(t, p.Name, p.Source)
		res := Infer(prog, corpusOpts(p), d)
		seen := make(map[[2]int]bool)
		for _, e := range res.Prov.Edges {
			if e.Cat != trace.CatBase {
				continue
			}
			k := [2]int{e.From, e.To}
			if seen[k] {
				t.Errorf("%s: contains edge n%d -> n%d recorded twice", p.Name, e.From, e.To)
				break
			}
			seen[k] = true
		}
		if p.Name == "ijpeg" {
			if n := len(res.Prov.Edges); n > 3000 {
				t.Errorf("ijpeg records %d constraint edges, want <= 3000", n)
			}
		}
	}
}

// TestInferAllocation bounds the memory one inference of ijpeg and of bind
// allocates. Reusing the physical-type matchers' atom buffers and computing
// the solver's representative list once brought ijpeg from 3.92 MB to
// 2.14 MB (2,244,376 bytes with go1.24 on linux/amd64). Rendering a node's
// type only when a blame chain is rendered, not when the node is made,
// brought it to 1.99 MB (2,091,200 bytes). Keeping per-occurrence state in
// slices indexed by dense occurrence IDs instead of maps keyed by
// *ctypes.Type, running the RTTI subtype tests on the inference's own
// matcher and building hierarchy keys without fmt brought it to 1.45 MB
// (1,524,864 bytes), and bind, whose __SPLIT annotations give split
// inference real work, from 0.47 MB (488,440 bytes) to 0.35 MB (371,464
// bytes). Each limit is the last figure plus 25%. Under the race detector
// the figures are 1,598,696 and 388,192 bytes.
func TestInferAllocation(t *testing.T) {
	for _, c := range []struct {
		name  string
		limit uint64
	}{{"ijpeg", 1_906_100}, {"bind", 464_400}} {
		p := corpus.ByName(c.name)
		var best uint64
		for i := 0; i < 3; i++ {
			prog, d := lower(t, p.Name, p.Source)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Infer(prog, corpusOpts(p), d)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
				best = n
			}
		}
		t.Logf("Infer(%s) allocates %.2f MB (%d bytes)", c.name, float64(best)/(1<<20), best)
		if best > c.limit {
			t.Errorf("Infer(%s) allocates %.2f MB, want <= %.2f MB", c.name, float64(best)/(1<<20), float64(c.limit)/(1<<20))
		}
	}
}

// goalFacts lists the seed facts that may originate each goal kind.
var goalFacts = map[trace.Goal][]string{
	trace.GoalWild: {"bad-cast", "forced-WILD", "demoted"},
	trace.GoalSeq:  {"arith", "int-cast", "int-cast-flow", "forced-SEQ"},
	trace.GoalRtti: {"rtti-need", "forced-RTTI"},
}

// TestBlameChainsTotal asserts that every non-SAFE occurrence of every
// corpus program has a blame chain, and that the chain ends at a seed
// able to force its kind.
func TestBlameChainsTotal(t *testing.T) {
	goals := map[qual.Kind]trace.Goal{qual.Wild: trace.GoalWild, qual.Seq: trace.GoalSeq, qual.Rtti: trace.GoalRtti}
	for _, p := range corpus.All() {
		for _, opts := range []Options{{}, {NoRTTI: true}, {SplitAll: true}} {
			label := fmt.Sprintf("%s/%+v", p.Name, opts)
			prog, d := lower(t, p.Name, p.Source)
			res := Infer(prog, opts, d)
			for _, n := range res.Graph.Nodes {
				goal, ok := goals[res.Graph.KindOf(n.Ty)]
				if !ok {
					continue
				}
				ch := res.Explain(n.Ty)
				if ch == nil || ch.Seed == nil {
					t.Fatalf("%s: n%d (%s) is %s with no blame chain", label, n.ID, n.Ty, goal)
				}
				end := ch.Target
				for _, s := range ch.Steps {
					if s.Reversed {
						end = s.Edge.From
					} else {
						end = s.Edge.To
					}
				}
				if ch.Seed.Node != end {
					t.Fatalf("%s: n%d chain ends at n%d but its seed is on n%d", label, n.ID, end, ch.Seed.Node)
				}
				okFact := false
				for _, f := range goalFacts[goal] {
					okFact = okFact || f == ch.Seed.Fact
				}
				if !okFact {
					t.Fatalf("%s: n%d is %s but its chain ends at a %q seed", label, n.ID, goal, ch.Seed.Fact)
				}
			}
		}
	}
}

var inferSink *Result

// BenchmarkInfer times whole-program inference (frontend excluded) of
// the largest hierarchy (ijpeg), the cast-heavy daemon (bind) and a
// recursive-structure interpreter (spec-li).
func BenchmarkInfer(b *testing.B) {
	for _, name := range []string{"ijpeg", "bind", "spec-li"} {
		p := corpus.ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog, d := lower(b, p.Name, p.Source)
				b.StartTimer()
				inferSink = Infer(prog, corpusOpts(p), d)
			}
		})
	}
}
