package interp_test

import (
	"strings"
	"testing"

	"gocured/internal/cil"
	"gocured/internal/core"
	"gocured/internal/ctypes"
	"gocured/internal/infer"
	"gocured/internal/instrument"
	"gocured/internal/interp"
	"gocured/internal/vm"
)

// Opcode semantics: every opcode and every superinstruction the bytecode
// compiler emits is driven by at least one small program below, and each
// program must produce the same Outcome on the VM as on the tree walker
// (stdout, exit code, trap, step/check/cost counters, per-kind checks,
// memory traffic and per-site attribution). The mixed-kind programs pin
// the cases where a register's dynamic kind differs from its static type:
// the tree walker's dynamic kind is the semantics.

var opcodePrograms = []struct {
	name string
	src  string
}{
	{"control", `
int printf(char *fmt, ...);
int g;
int main(void) {
    int i; int n = 0; int x = 3;
    for (i = 0; i < 10; i++) {
        if (i == 7) break;
        if (i & 1) continue;
        n += i;
    }
    while (x) { x--; }
    if (x) {}
    if (!n) n = 99; else n = n * 2;
    switch (n) { case 1: n = 5; break; case 12: n = n + 1; default: n = n - 2; }
    do { g++; } while (g < 3);
    printf("%d %d %d\n", n, x, g);
    return n;
}`},
	{"arith", `
int printf(char *fmt, ...);
unsigned int u; short s; signed char c; long l; unsigned char uc;
int main(void) {
    int a = 17, b = -5, r;
    unsigned int ua = 4000000000u, ub = 7, big;
    r = a / b + a % b + (a << 3) + (a >> 1) + (b >> 1);
    r = r ^ (a | b) ^ (a & 12);
    u = ua / ub + ua % ub + (ua >> 3);
    s = (short)(a * 5000);
    c = (signed char)(a * 20);
    l = (long)a * 100000;
    r += (a < b) + (a > b) * 2 + (a <= 17) * 4 + (a >= 18) * 8 + (a == 17) * 16 + (a != 17) * 32;
    r += (ua < ub) + (ua > ub) * 2;
    r = -r; r = ~r;
    uc = 250; uc = uc + 10;
    big = ua + ua;
    big = big + ub;
    r += (unsigned char)(a * 10) + ((ua + ua) > ub) * 1000;
    printf("%d %u %d %d %ld %u %u\n", r, u, s, c, l, uc, big);
    return 0;
}`},
	{"float", `
int printf(char *fmt, ...);
double d; float f;
int main(void) {
    double x = 1.5, y = -0.25, z = -0.0;
    float w = 2.5f;
    int n = 0;
    d = x * y + x / y - x;
    f = w * 3;
    float *fp = &w;
    double back;
    if (z) n = 1;
    if (!z) n += 2;
    if (x > y) n += 4;
    if (y != y) n += 8;
    if (z) {}
    if (x * y < w * y) n += 16;
    while (n < 100) { n = n + 50; w = w * w; y = x; }
    back = *fp;
    d = -d;
    n += (int)d;
    printf("%f %f %d %d %f\n", d, f, n, (int)(x < w), back);
    return 0;
}`},
	{"pointers", `
int printf(char *fmt, ...);
void *malloc(unsigned int n);
struct P { int a; int b[4]; struct P *next; };
int ga[8];
struct P gp;
int sum(int *p, int n) { int s = 0; int i; for (i = 0; i < n; i++) s += p[i]; return s; }
int main(void) {
    int a[6]; int i; int *p; int *q; int **pp;
    struct P *h = (struct P*)malloc(sizeof(struct P));
    struct P loc;
    for (i = 0; i < 6; i++) a[i] = i * i;
    i = 0;
    while (i < 2) { i++; p = a; }
    q = &a[4];
    *p = 7;
    p[2] = p[1] + *q;
    pp = &p;
    **pp = 9;
    h->a = 3; h->b[2] = 4; h->next = 0;
    gp.b[3] = 5; ga[2] = 6;
    p = &gp.b[1];
    p[2] += 1;
    p = &ga[3];
    p[-1] += 1;
    loc = *h;
    gp = loc;
    printf("%d %d %d %d %d %d\n", sum(a, 6), (int)(q - a), gp.b[2], gp.b[3], ga[2], loc.a);
    if (*q < a[1]) printf("lt\n");
    if (*pp > q) printf("gt\n");
    if ((char*)*pp != (char*)q) printf("ne\n");
    if (*q < 3) printf("lt3\n");
    return h->next != 0;
}`},
	{"calls", `
int printf(char *fmt, ...);
int strlen(char *s);
int twice(int x) { return x * 2; }
char first(char *s) { return s[0]; }
void nothing(void) { return; }
int apply(int (*f)(int), int v) { return f(v); }
int main(void) {
    int (*fp)(int) = twice;
    int (*lp)(char *) = strlen;
    nothing();
    printf("%d %d %c %d\n", apply(fp, 21), fp(4), first("xyz"), lp("abcd"));
    return twice(1);
}`},
	{"checks", `
int printf(char *fmt, ...);
void *malloc(unsigned int n);
struct S { int k; };
struct T { int k; int extra; };
int *cell;
int main(void) {
    int a[5]; int i; int *p = a; char *s = "hello";
    struct T t; struct S *sp; void *vp;
    for (i = 0; i < 5; i++) p[i] = i;
    for (i = 0; i < 5; i++) *(p + i) += 1;
    t.k = 4; t.extra = 5;
    vp = (void*)&t;
    sp = (struct S*)vp;
    cell = (int*)malloc(sizeof(int));
    *cell = a[4];
    printf("%d %d %c\n", sp->k, *cell, s[4]);
    return 0;
}`},
	{"wild", `
int printf(char *fmt, ...);
struct A { int x; int y; };
struct B { float f; int z; };
struct A a;
int main(void) {
    struct A loc;
    struct A *pa = &a;
    struct B *pb = (struct B*)pa;
    struct B *lb = (struct B*)&loc;
    pb->z = 7;
    lb->z = 8;
    printf("%d %d %d\n", a.y, pb->z, loc.y);
    return 0;
}`},
	{"stack-escape", `
int **heap_cell;
void *malloc(unsigned int n);
void leak(void) {
    int local = 5;
    *heap_cell = &local;
}
int main(void) {
    heap_cell = (int**)malloc(sizeof(int*));
    leak();
    return 0;
}`},
	{"bounds-trap", `
int main(void) {
    int a[4]; int i;
    for (i = 0; i <= 4; i++) a[i] = i;
    return a[0];
}`},
	// Mixed kinds: a null pointer constant plus an offset is still an
	// integer-kinded value with a pointer payload.
	{"null-plus-offset", `
int printf(char *fmt, ...);
int main(void) {
    char *p = (char*)0 + 4;
    long v = (long)((char*)0 + 4);
    int t = 0;
    if ((char*)0 + 4) t = 1;
    printf("%ld %d %d\n", v, t, p != 0);
    return 0;
}`},
	{"disguised-int-seq", `
int main(void) {
    int *p = (int*)1234;
    int i = 1;
    return p[i];
}`},
	{"builtin-into-pointer", `
int printf(char *fmt, ...);
char *abs(int x);
char *strchr(char *s, int c);
int main(void) {
    char *p = abs(-5);
    char *q = strchr("abc", 'z');
    char *r = strchr("abc", 'b');
    int n = 0;
    if (p) n += 1;
    if (q) n += 2;
    if (r) n += 4;
    printf("%d %ld %c\n", n, (long)p, *r);
    return 0;
}`},
	// __mkptr keeps its model's kind: with an integer model the call
	// returns a VInt carrying a pointer payload, which no plain register
	// form holds.
	{"wide-register", `
int printf(char *fmt, ...);
char *__mkptr(char *p, long model);
int main(void) {
    char *s = "hey";
    char *w = __mkptr(s + 1, 7);
    printf("%d\n", (int)(w - s));
    return (int)(w - s);
}`},
	{"sub-pp", `
int printf(char *fmt, ...);
struct E { int a; int b; int c; };
struct E arr[10];
int main(void) {
    struct E *p = &arr[7];
    struct E *q = &arr[2];
    char *s = "abcdef";
    char *e = s + 5;
    printf("%d %d %d\n", (int)(p - q), (int)(q - p), (int)(e - s));
    return 0;
}`},
	{"array-pointer", `
int printf(char *fmt, ...);
int m[3][4];
int main(void) {
    int (*pa)[4] = m;
    int j = 0; int k;
    for (k = 0; k < 4; k++) pa[j + 1][k] = k * 7;
    printf("%d %d\n", m[1][3], *(&pa[j + 1][0] + 2));
    return 0;
}`},
	// A builtin declared to return an integer hands back a pointer: the
	// call's int-typed register holds a VPtr until it is stored. Integer
	// conversions of it (and of a pointer local) into locals, each followed
	// by another statement, must store exactly the bytes convertVia makes.
	{"pointer-in-int-register", `
int printf(char *fmt, ...);
long strchr(char *s, int c);
int main(void) {
    char *s = "abc";
    long w; int v; short h; unsigned char b; int n = 0;
    v = (int)strchr(s, 'b');
    n = n + 1;
    h = (short)strchr(s, 'c');
    n = n + 2;
    w = (long)s;
    n = n + (v != 0) + (h != 0);
    v = (int)w;
    b = (unsigned char)s;
    n = n + (v - (int)s) + (b == (unsigned char)w);
    printf("%d %d %d %d\n", n, v - (int)s, (int)(w - (long)s), (int)b - (int)(unsigned char)v);
    return n;
}`},
	{"switch-on-pointer", `
int printf(char *fmt, ...);
int main(void) {
    char *p = 0;
    int n = 0;
    switch ((long)p) { case 0: n = 1; break; default: n = 2; }
    printf("%d\n", n);
    return n;
}`},
}

func TestOpcodeSemantics(t *testing.T) {
	seen := map[vm.Op]bool{}
	for _, tc := range opcodePrograms {
		t.Run(tc.name, func(t *testing.T) {
			for _, opts := range []infer.Options{{}, {NoOptimize: true}} {
				u, err := core.Build(tc.name+".c", tc.src, opts)
				if err != nil {
					t.Fatalf("build %+v: %v", opts, err)
				}
				for _, mod := range []*vm.Module{
					vm.Compile(u.Cured.Prog, u.Cured.Lay),
					vm.Compile(u.Raw, instrument.RawLayout{}),
				} {
					for _, fc := range mod.Funcs {
						for _, in := range fc.Code {
							seen[in.Op] = true
						}
					}
				}
				run := func(b interp.Backend) (cured, raw *interp.Outcome) {
					cured, err := u.RunCured(interp.Config{Backend: b})
					if err != nil {
						t.Fatalf("run cured on %s: %v", b, err)
					}
					raw, err = u.RunRaw(interp.PolicyNone, interp.Config{Backend: b})
					if err != nil {
						t.Fatalf("run raw on %s: %v", b, err)
					}
					return cured, raw
				}
				tree, treeRaw := run(interp.BackendTree)
				vmo, vmRaw := run(interp.BackendVM)
				if err := identicalBackends(tc.name+" cured", tree, vmo); err != nil {
					t.Fatal(err)
				}
				if err := identicalBackends(tc.name+" raw", treeRaw, vmRaw); err != nil {
					t.Fatal(err)
				}
				if tree.Trap != nil {
					t.Logf("%+v: trap %s: %s", opts, tree.Trap.Kind, tree.Trap.Msg)
				} else {
					t.Logf("%+v: stdout %q exit %d", opts, tree.Stdout, tree.ExitCode)
				}
			}
		})
	}
	// Hand-built IR reaches the shapes no C program lowers to: an array
	// index that stays an lvalue offset (sema decays every subscripted
	// array), a constant operand beside a float (C converts it) and a call
	// result converted on its way into a variable (C goes through a
	// temporary of the return type).
	handBuilt := handBuiltProgram()
	for _, fc := range vm.Compile(handBuilt, instrument.RawLayout{}).Funcs {
		for _, in := range fc.Code {
			seen[in.Op] = true
		}
	}
	var outs [2]*interp.Outcome
	for i, b := range []interp.Backend{interp.BackendTree, interp.BackendVM} {
		out, err := interp.New(handBuilt, interp.Config{Policy: interp.PolicyNone, Backend: b}).Run()
		if err != nil {
			t.Fatalf("hand-built IR on %s: %v", b, err)
		}
		outs[i] = out
	}
	if err := identicalBackends("hand-built IR", outs[0], outs[1]); err != nil {
		t.Fatal(err)
	}
	if outs[0].Trap != nil || outs[0].ExitCode != 3 {
		t.Fatalf("hand-built IR: exit %d, trap %v; want exit 3", outs[0].ExitCode, outs[0].Trap)
	}

	var missing []string
	for op := vm.OpStep; op < vm.NumOps; op++ {
		if !seen[op] {
			missing = append(missing, op.String())
		}
	}
	if len(missing) > 0 {
		t.Errorf("opcodes no program emits: %s", strings.Join(missing, " "))
	}
}

// handBuiltProgram is, in C terms,
//
//	long strchr(char *s, int c);
//	int main(void) { int a[4]; int i; double x; int v;
//	    v = strchr("ab", 'b'); i = 2; a[i] = 7; x = -1.5 * 4; x = x + 1;
//	    return a[i] + (int)x + (v != 0); }
//
// with a[i] kept as an index offset on a, 4 and 1 kept int constants, and
// the call's result stored into v directly, through a conversion between
// two distinct but equal int types: the register it converts holds the
// pointer the builtin returns, so the conversion is not an identity.
func handBuiltProgram() *cil.Program {
	intT, dbl := ctypes.IntT(), ctypes.FloatType(8)
	a := &cil.Var{Name: "a", Type: ctypes.ArrayOf(intT, 4)}
	i := &cil.Var{Name: "i", Type: intT}
	x := &cil.Var{Name: "x", Type: dbl}
	v := &cil.Var{Name: "v", Type: ctypes.IntT()}
	charP := ctypes.PointerTo(ctypes.CharType())
	strchr := &cil.FnConst{Name: "strchr", Ty: ctypes.PointerTo(ctypes.FuncType(ctypes.IntT(), []*ctypes.Type{charP, intT}, nil, false))}
	ai := func() *cil.Lvalue {
		return &cil.Lvalue{Var: a, Offset: []cil.OffElem{{Index: &cil.Lval{LV: cil.VarLV(i)}}}, Ty: intT}
	}
	set := func(lv *cil.Lvalue, rhs cil.Expr) cil.Stmt {
		return &cil.SInstr{Ins: &cil.Set{LV: lv, RHS: rhs}}
	}
	fn := &cil.Func{
		Name:   "main",
		Type:   ctypes.FuncType(intT, nil, nil, false),
		Locals: []*cil.Var{a, i, x, v},
		Body: &cil.Block{Stmts: []cil.Stmt{
			&cil.SInstr{Ins: &cil.Call{Result: cil.VarLV(v), Fn: strchr,
				Args: []cil.Expr{&cil.StrConst{S: "ab", Ty: charP}, &cil.Const{I: 'b', Ty: intT}}}},
			set(cil.VarLV(i), &cil.Const{I: 2, Ty: intT}),
			set(ai(), &cil.Const{I: 7, Ty: intT}),
			set(cil.VarLV(x), &cil.BinOp{Op: cil.OpMul,
				A: &cil.UnOp{Op: cil.OpNeg, X: &cil.FConst{F: 1.5, Ty: dbl}, Ty: dbl},
				B: &cil.Const{I: 4, Ty: intT}, Ty: dbl}),
			set(cil.VarLV(x), &cil.BinOp{Op: cil.OpAdd, A: &cil.Lval{LV: cil.VarLV(x)},
				B: &cil.Const{I: 1, Ty: intT}, Ty: dbl}),
			&cil.Return{X: &cil.BinOp{Op: cil.OpAdd, A: &cil.BinOp{Op: cil.OpAdd, A: &cil.Lval{LV: ai()},
				B: &cil.Cast{To: intT, X: &cil.Lval{LV: cil.VarLV(x)}}, Ty: intT},
				B: &cil.BinOp{Op: cil.OpNe, A: &cil.Lval{LV: cil.VarLV(v)}, B: &cil.Const{I: 0, Ty: intT}, Ty: intT}, Ty: intT}},
		}},
	}
	return &cil.Program{Funcs: []*cil.Func{fn}, FuncMap: map[string]*cil.Func{fn.Name: fn}}
}
