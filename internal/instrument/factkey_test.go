package instrument_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gocured/internal/cil"
	"gocured/internal/core"
	"gocured/internal/corpus"
	"gocured/internal/ctypes"
	"gocured/internal/infer"
	"gocured/internal/instrument"
)

// fmtKeyExpr, fmtKeyLval and fmtFactKey render a check's fact key as a
// string with fmt.Fprintf: variables by ID, type occurrences by node
// address. They are the reference the optimizer's integer fact IDs must
// agree with: two checks share a fact ID exactly when their renderings
// are equal.
func fmtKeyExpr(b *strings.Builder, e cil.Expr) {
	switch x := e.(type) {
	case nil:
	case *cil.Const:
		fmt.Fprintf(b, "c%d", x.I)
	case *cil.FConst:
		fmt.Fprintf(b, "f%g", x.F)
	case *cil.StrConst:
		fmt.Fprintf(b, "s%q", x.S)
	case *cil.FnConst:
		fmt.Fprintf(b, "fn:%s", x.Name)
	case *cil.SizeOf:
		fmt.Fprintf(b, "sz%p", x.Of)
	case *cil.Lval:
		fmtKeyLval(b, x.LV)
	case *cil.AddrOf:
		b.WriteByte('&')
		fmtKeyLval(b, x.LV)
	case *cil.BinOp:
		fmt.Fprintf(b, "(%d ", int(x.Op))
		fmtKeyExpr(b, x.A)
		b.WriteByte(' ')
		fmtKeyExpr(b, x.B)
		b.WriteByte(')')
	case *cil.UnOp:
		fmt.Fprintf(b, "(u%d ", int(x.Op))
		fmtKeyExpr(b, x.X)
		b.WriteByte(')')
	case *cil.Cast:
		fmt.Fprintf(b, "(cast%p ", x.To)
		fmtKeyExpr(b, x.X)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "?%T", e)
	}
}

func fmtKeyLval(b *strings.Builder, lv *cil.Lvalue) {
	if lv.Var != nil {
		if lv.Var.Global {
			fmt.Fprintf(b, "g%d", lv.Var.ID)
		} else {
			fmt.Fprintf(b, "l%d", lv.Var.ID)
		}
	} else {
		b.WriteString("(*")
		fmtKeyExpr(b, lv.Mem)
		b.WriteByte(')')
	}
	for _, o := range lv.Offset {
		if o.Field != nil {
			fmt.Fprintf(b, ".%s", o.Field.Name)
		} else {
			b.WriteByte('[')
			fmtKeyExpr(b, o.Index)
			b.WriteByte(']')
		}
	}
}

func fmtFactKey(c *cil.Check) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", int(c.Kind))
	fmtKeyExpr(&b, c.Ptr)
	fmt.Fprintf(&b, "|%d", c.Size)
	if c.RttiTarget != nil {
		fmt.Fprintf(&b, "|%p", c.RttiTarget)
	}
	if c.DstLV != nil {
		b.WriteString("|dst:")
		fmtKeyLval(&b, c.DstLV)
	}
	return b.String()
}

// checkFactIDs enters checks into one fact table and fails the test unless
// the fact IDs and the fmt keys partition them alike: equal IDs exactly
// for equal keys.
func checkFactIDs(t *testing.T, label string, checks []*cil.Check) {
	t.Helper()
	ids := instrument.FactIDs(checks)
	idOf := map[string]int{}
	keyOf := map[int]string{}
	for i, c := range checks {
		k := fmtFactKey(c)
		if id, ok := idOf[k]; ok && id != ids[i] {
			t.Errorf("%s: check %d has fact ID %d, but an earlier check with key %q has %d", label, i, ids[i], k, id)
		}
		if k2, ok := keyOf[ids[i]]; ok && k2 != k {
			t.Errorf("%s: fact ID %d covers keys %q and %q", label, ids[i], k2, k)
		}
		idOf[k], keyOf[ids[i]] = ids[i], k
	}
}

// TestFactKeyMatchesFmt asserts that in every corpus function, as
// inserted (-O0) and as optimized, the optimizer's fact IDs group the
// checks exactly as their fmt keys do.
func TestFactKeyMatchesFmt(t *testing.T) {
	n, shared := 0, 0
	for _, p := range corpus.All() {
		for _, noOpt := range []bool{true, false} {
			u, err := core.Build(p.Name+".c", p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts, NoOptimize: noOpt})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			for _, fn := range u.Cured.Prog.Funcs {
				var checks []*cil.Check
				keys := map[string]bool{}
				cil.WalkInstrs(fn.Body.Stmts, func(i cil.Instr) {
					if c, ok := i.(*cil.Check); ok {
						checks = append(checks, c)
						keys[fmtFactKey(c)] = true
					}
				})
				n += len(checks)
				shared += len(checks) - len(keys)
				checkFactIDs(t, p.Name+"/"+fn.Name, checks)
			}
		}
	}
	if n == 0 || shared == 0 {
		t.Fatalf("%d checks in the corpus, %d sharing a key with an earlier one; want both > 0", n, shared)
	}
}

// TestFactKeyEveryCase covers the expression and lvalue cases no corpus
// check reaches, with negative and wide integers: each case is entered
// twice (as a fresh copy, so identity cannot stand in for equality) next
// to near misses that differ in one detail each.
func TestFactKeyEveryCase(t *testing.T) {
	i32 := ctypes.IntT()
	i64 := ctypes.IntType(8, true)
	ip := ctypes.PointerTo(i32)
	ip2 := ctypes.PointerTo(i32) // prints like ip, but is another occurrence
	su := ctypes.NewStruct("s", false)
	su.Define([]*ctypes.Field{{Name: "f", Type: ip}, {Name: "h", Type: ip}})
	g := &cil.Var{Name: "g", Type: ip, Global: true, ID: 12345}
	gl := &cil.Var{Name: "gl", Type: ip, ID: 12345} // a local with g's ID
	l := &cil.Var{Name: "l", Type: ctypes.StructType(su), ID: 7}
	exprs := func() []cil.Expr {
		return []cil.Expr{
			&cil.Const{I: -9223372036854775808, Ty: i32},
			&cil.Const{I: 1 << 40, Ty: i32},
			&cil.Const{I: 1 << 40, Ty: i64}, // a constant's type is not in its key
			&cil.FConst{F: -1.5e-7, Ty: ctypes.FloatType(8)},
			&cil.FConst{F: 0, Ty: ctypes.FloatType(8)},
			&cil.FConst{F: math.Copysign(0, -1), Ty: ctypes.FloatType(8)},
			&cil.FConst{F: math.NaN(), Ty: ctypes.FloatType(8)},
			&cil.FConst{F: math.Float64frombits(0x7ff8000000000001), Ty: ctypes.FloatType(8)},
			&cil.StrConst{S: "a\"b\n", Ty: ctypes.PointerTo(ctypes.CharType())},
			&cil.FnConst{Name: "main", Ty: ip},
			&cil.SizeOf{Of: i32, Ty: i32},
			&cil.SizeOf{Of: ip, Ty: i32},
			&cil.SizeOf{Of: ip2, Ty: i32},
			&cil.Lval{LV: cil.VarLV(g)},
			&cil.Lval{LV: cil.VarLV(gl)},
			&cil.AddrOf{LV: &cil.Lvalue{Var: l, Offset: []cil.OffElem{{Field: su.Fields[0]}}, Ty: ip}, Ty: ip},
			&cil.AddrOf{LV: &cil.Lvalue{Var: l, Offset: []cil.OffElem{{Field: su.Fields[1]}}, Ty: ip}, Ty: ip},
			&cil.BinOp{Op: cil.OpAddPI, A: &cil.Lval{LV: cil.VarLV(g)}, B: &cil.Const{I: -3, Ty: i32}, Ty: ip},
			&cil.BinOp{Op: cil.OpSubPI, A: &cil.Lval{LV: cil.VarLV(g)}, B: &cil.Const{I: -3, Ty: i32}, Ty: ip},
			&cil.BinOp{Op: cil.OpAddPI, A: &cil.Const{I: -3, Ty: i32}, B: &cil.Lval{LV: cil.VarLV(g)}, Ty: ip},
			&cil.BinOp{Op: cil.OpAddPI, A: nil, B: &cil.Lval{LV: cil.VarLV(g)}, Ty: ip},
			&cil.UnOp{Op: cil.OpNeg, X: &cil.Const{I: 42, Ty: i32}, Ty: i32},
			&cil.UnOp{Op: cil.OpBitNot, X: &cil.Const{I: 42, Ty: i32}, Ty: i32},
			&cil.Cast{To: ip, X: &cil.Lval{LV: &cil.Lvalue{
				Mem:    &cil.Lval{LV: cil.VarLV(g)},
				Offset: []cil.OffElem{{Index: &cil.Const{I: 99, Ty: i32}}},
				Ty:     i32,
			}}},
			&cil.Cast{To: ip2, X: &cil.Lval{LV: &cil.Lvalue{
				Mem:    &cil.Lval{LV: cil.VarLV(g)},
				Offset: []cil.OffElem{{Index: &cil.Const{I: 99, Ty: i32}}},
				Ty:     i32,
			}}},
			nil,
		}
	}
	var checks []*cil.Check
	for range 2 {
		for _, e := range exprs() {
			checks = append(checks, &cil.Check{Kind: cil.CheckIndex, Ptr: e, Size: -4})
		}
		ptr := &cil.Lval{LV: cil.VarLV(g)}
		checks = append(checks,
			&cil.Check{Kind: cil.CheckSeq, Ptr: ptr, Size: -4},
			&cil.Check{Kind: cil.CheckIndex, Ptr: ptr, Size: 4},
			&cil.Check{Kind: cil.CheckRtti, Ptr: ptr, Size: 1 << 20, RttiTarget: ip},
			&cil.Check{Kind: cil.CheckRtti, Ptr: ptr, Size: 1 << 20, RttiTarget: ip2},
			&cil.Check{Kind: cil.CheckStackEscape, Ptr: ptr, DstLV: &cil.Lvalue{Var: l, Ty: l.Type}},
			&cil.Check{Kind: cil.CheckStackEscape, Ptr: ptr, DstLV: &cil.Lvalue{Var: gl, Ty: gl.Type}},
			&cil.Check{Kind: cil.CheckStackEscape, Ptr: ptr})
	}
	checkFactIDs(t, "every case", checks)
	if ids := instrument.FactIDs(checks); ids[0] == ids[1] || ids[1] != ids[2] || ids[6] != ids[7] {
		t.Errorf("fact IDs %v: want distinct wide constants, one ID across constant types and across NaN payloads", ids)
	}
}
