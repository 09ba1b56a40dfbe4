package infer

import (
	"slices"
	"strings"
	"testing"

	"gocured/internal/cil"
	"gocured/internal/corpus"
	"gocured/internal/ctypes"
	"gocured/internal/qual"
)

// progTypes returns every occurrence reachable from prog's declarations
// and expressions, once each, in walk order.
func progTypes(prog *cil.Program) []*ctypes.Type {
	var out []*ctypes.Type
	seen := make(map[*ctypes.Type]bool)
	add := func(t *ctypes.Type) {
		ctypes.Walk(t, func(u *ctypes.Type) {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		})
	}
	for _, g := range prog.Globals {
		add(g.Var.Type)
		add(g.Var.AddrType)
	}
	for _, v := range prog.Externs {
		add(v.Type)
		add(v.AddrType)
	}
	for _, f := range prog.Funcs {
		add(f.Type)
		for _, v := range append(slices.Clone(f.Params), f.Locals...) {
			add(v.Type)
			add(v.AddrType)
		}
		cil.WalkFuncExprs(f, func(e cil.Expr) { add(e.Type()) })
	}
	return out
}

// TestOccurrenceIDsDensePerProgram checks that a program's IDs count its
// own occurrences only: every ID lies within the program's count, and
// inferring another program in between changes neither the count nor the
// size of the split table.
func TestOccurrenceIDsDensePerProgram(t *testing.T) {
	p, other := corpus.ByName("ijpeg"), corpus.ByName("bind")
	sizes := func() [2]int {
		prog, d := lower(t, p.Name, p.Source)
		res := Infer(prog, corpusOpts(p), d)
		n := int(prog.IDs)
		for _, u := range progTypes(prog) {
			if id := u.ID(); id < 0 || int(id) > n {
				t.Fatalf("%s has ID %d outside 1..%d", u, id, n)
			}
		}
		return [2]int{n, len(res.Split.byOcc)}
	}
	first := sizes()
	prog, d := lower(t, other.Name, other.Source)
	Infer(prog, corpusOpts(other), d)
	if again := sizes(); again != first {
		t.Fatalf("ijpeg's occurrence count and split table size are %v after another inference, %v before", again, first)
	}
}

// TestQueryAfterInferReadsOnly queries a type made after inference: every
// lookup misses, as a map lookup would, and none numbers the type.
func TestQueryAfterInferReadsOnly(t *testing.T) {
	p := corpus.ByName("bind")
	prog, d := lower(t, p.Name, p.Source)
	res := Infer(prog, corpusOpts(p), d)
	n := int(prog.IDs)
	late := ctypes.PointerTo(ctypes.IntT())
	if res.Graph.Lookup(late) != nil || res.Graph.OccNode(late) != nil {
		t.Error("a type made after inference has a qualifier node")
	}
	if res.Split.IsSplit(late) || res.Graph.KindOf(late) != qual.Safe {
		t.Error("a type made after inference is split or not SAFE")
	}
	if late.ID() != 0 || int(prog.IDs) != n {
		t.Errorf("queries numbered a type: ID %d, count %d -> %d", late.ID(), n, int(prog.IDs))
	}
}

// TestIDOrderNotObservable numbers every occurrence in reverse walk order
// before inference and checks that the result, the diagnostics and every
// occurrence's kind and split decision match a plain inference.
func TestIDOrderNotObservable(t *testing.T) {
	for _, p := range corpus.All() {
		for _, o := range sigOptions {
			run := func(reverse bool) (string, []string) {
				prog, d := lower(t, p.Name, p.Source)
				types := progTypes(prog)
				if reverse {
					for i := len(types) - 1; i >= 0; i-- {
						prog.IDs.Of(types[i])
					}
				}
				res := Infer(prog, o.opts, d)
				var b strings.Builder
				for _, u := range types {
					b.WriteString(res.Graph.KindOf(u).String())
					if res.Split.IsSplit(u) {
						b.WriteString("/split")
					}
					b.WriteByte(' ')
				}
				var diags []string
				for _, x := range d.All() {
					diags = append(diags, x.String())
				}
				return resultSig(res) + b.String(), diags
			}
			sig, diags := run(false)
			rsig, rdiags := run(true)
			if sig != rsig {
				t.Errorf("%s/%s: result depends on the ID order", p.Name, o.label)
			}
			if !slices.Equal(diags, rdiags) {
				t.Errorf("%s/%s: diagnostics depend on the ID order:\n%v\n%v", p.Name, o.label, diags, rdiags)
			}
		}
	}
}
