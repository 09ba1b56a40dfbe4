package ctypes_test

import (
	"testing"

	"gocured/internal/cil"
	"gocured/internal/corpus"
	"gocured/internal/cparse"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/sema"
)

// checkOnceWalk asserts that a OnceWalker over roots applies f exactly
// once per occurrence, in the order of each occurrence's first visit
// across one fresh ctypes.Walk per root.
func checkOnceWalk(t *testing.T, label string, ids *ctypes.IDs, roots []*ctypes.Type) {
	t.Helper()
	var want []*ctypes.Type
	seen := make(map[*ctypes.Type]bool)
	for _, r := range roots {
		ctypes.Walk(r, func(u *ctypes.Type) {
			if !seen[u] {
				seen[u] = true
				want = append(want, u)
			}
		})
	}
	var got []*ctypes.Type
	w := ctypes.NewOnceWalker(ids, func(u *ctypes.Type) { got = append(got, u) })
	for _, r := range roots {
		w.Walk(r)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: OnceWalker visited %d occurrences, fresh walks %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: visit %d is %s, fresh walks visit %s first", label, i, got[i], want[i])
		}
	}
}

// TestOnceWalkerReentersSignature covers an occurrence met again while its
// own descent is in progress: a function-pointer typedef stored in the
// struct its signature points to. The second meeting must descend again,
// as a fresh walk does, so the signature's later parameter is visited
// before the struct's later field; it must not apply f twice.
func TestOnceWalkerReentersSignature(t *testing.T) {
	s := ctypes.NewStruct("S", false, 0)
	sp := ctypes.PointerTo(ctypes.StructType(s))
	yp := ctypes.PointerTo(ctypes.IntT())
	handler := ctypes.PointerTo(ctypes.FuncType(ctypes.IntT(), []*ctypes.Type{sp, yp}, nil, false))
	zp := ctypes.PointerTo(ctypes.CharType())
	s.Define([]*ctypes.Field{{Name: "h", Type: handler}, {Name: "z", Type: zp}})
	checkOnceWalk(t, "handler", new(ctypes.IDs), []*ctypes.Type{handler, sp, zp, handler})
}

// TestOnceWalkerCorpusOrder replays the registration roots of pointer-kind
// inference for every corpus program: every declaration type, then every
// expression type in body order.
func TestOnceWalkerCorpusOrder(t *testing.T) {
	for _, p := range corpus.All() {
		var d diag.List
		prog := cil.Lower(sema.Check(cparse.Parse(p.Name, p.Source, &d), &d), &d)
		if d.HasErrors() {
			t.Fatalf("%s: frontend errors:\n%v", p.Name, d.Err())
		}
		var roots []*ctypes.Type
		for _, g := range prog.Globals {
			roots = append(roots, g.Var.Type, g.Var.AddrType)
		}
		for _, v := range prog.Externs {
			roots = append(roots, v.Type, v.AddrType)
		}
		for _, f := range prog.Funcs {
			roots = append(roots, f.Type)
			for _, v := range append(append([]*cil.Var{}, f.Params...), f.Locals...) {
				roots = append(roots, v.Type, v.AddrType)
			}
		}
		for _, f := range prog.Funcs {
			cil.WalkFuncExprs(f, func(e cil.Expr) { roots = append(roots, e.Type()) })
		}
		checkOnceWalk(t, p.Name, &prog.IDs, roots)
	}
}
