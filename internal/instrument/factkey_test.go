package instrument_test

import (
	"fmt"
	"strings"
	"testing"

	"gocured/internal/cil"
	"gocured/internal/core"
	"gocured/internal/corpus"
	"gocured/internal/ctypes"
	"gocured/internal/infer"
	"gocured/internal/instrument"
)

// fmtKeyExpr, fmtKeyLval and fmtFactKey are the fmt.Fprintf rendering of
// the optimizer's fact keys, kept as the reference the faster writer must
// match byte for byte.
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

// checkFactKey fails the test if c's fact key differs from its fmt
// rendering.
func checkFactKey(t *testing.T, label string, c *cil.Check) {
	t.Helper()
	if got, want := instrument.FactKey(c), fmtFactKey(c); got != want {
		t.Errorf("%s: fact key %q, want %q", label, got, want)
	}
}

// TestFactKeyMatchesFmt asserts that the optimizer's fact key of every
// check in the corpus, as inserted (-O0) and as optimized, is the string
// the fmt rendering produces.
func TestFactKeyMatchesFmt(t *testing.T) {
	n := 0
	for _, p := range corpus.All() {
		for _, noOpt := range []bool{true, false} {
			u, err := core.Build(p.Name+".c", p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts, NoOptimize: noOpt})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			for _, fn := range u.Cured.Prog.Funcs {
				cil.WalkInstrs(fn.Body.Stmts, func(i cil.Instr) {
					if c, ok := i.(*cil.Check); ok {
						n++
						checkFactKey(t, p.Name+"/"+fn.Name, c)
					}
				})
			}
		}
	}
	if n == 0 {
		t.Fatal("no checks in the corpus")
	}
}

// TestFactKeyEveryCase covers the expression and lvalue cases no corpus
// check reaches, with negative and wide integers.
func TestFactKeyEveryCase(t *testing.T) {
	i32 := ctypes.IntT()
	ip := ctypes.PointerTo(i32)
	su := ctypes.NewStruct("s", false)
	su.Define([]*ctypes.Field{{Name: "f", Type: ip}})
	g := &cil.Var{Name: "g", Type: ip, Global: true, ID: 12345}
	l := &cil.Var{Name: "l", Type: ctypes.StructType(su), ID: 7}
	exprs := []cil.Expr{
		&cil.Const{I: -9223372036854775808, Ty: i32},
		&cil.Const{I: 1 << 40, Ty: i32},
		&cil.FConst{F: -1.5e-7, Ty: ctypes.FloatType(8)},
		&cil.StrConst{S: "a\"b\n", Ty: ctypes.PointerTo(ctypes.CharType())},
		&cil.FnConst{Name: "main", Ty: ip},
		&cil.SizeOf{Of: i32, Ty: i32},
		&cil.Lval{LV: cil.VarLV(g)},
		&cil.AddrOf{LV: &cil.Lvalue{Var: l, Offset: []cil.OffElem{{Field: su.Fields[0]}}, Ty: ip}, Ty: ip},
		&cil.BinOp{Op: cil.OpAddPI, A: &cil.Lval{LV: cil.VarLV(g)}, B: &cil.Const{I: -3, Ty: i32}, Ty: ip},
		&cil.UnOp{Op: cil.OpNeg, X: &cil.Const{I: 42, Ty: i32}, Ty: i32},
		&cil.Cast{To: ip, X: &cil.Lval{LV: &cil.Lvalue{
			Mem:    &cil.Lval{LV: cil.VarLV(g)},
			Offset: []cil.OffElem{{Index: &cil.Const{I: 99, Ty: i32}}},
			Ty:     i32,
		}}},
		nil,
	}
	for i, e := range exprs {
		checkFactKey(t, fmt.Sprintf("expr %d", i), &cil.Check{Kind: cil.CheckIndex, Ptr: e, Size: -4})
	}
	checkFactKey(t, "rtti", &cil.Check{Kind: cil.CheckRtti, Ptr: exprs[6], Size: 1 << 20, RttiTarget: ip})
	checkFactKey(t, "dst", &cil.Check{Kind: cil.CheckStackEscape, Ptr: exprs[6], DstLV: &cil.Lvalue{Var: l, Ty: l.Type}})
}
