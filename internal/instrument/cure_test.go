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
	"gocured/internal/interp"
	"gocured/internal/wrappers"
)

func build(t *testing.T, src string, opts infer.Options) *core.Unit {
	t.Helper()
	u, err := core.Build("t.c", src, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return u
}

func TestChecksInserted(t *testing.T) {
	u := build(t, corpus.Prelude+`
int sum(int *p, int n) {
    int i, t = 0;
    for (i = 0; i < n; i++) t += p[i];
    return t;
}
int main(void) {
    int *a = (int *)malloc(10 * sizeof(int));
    int i;
    for (i = 0; i < 10; i++) a[i] = i;
    return sum(a, 10);
}
`, infer.Options{})
	total := 0
	for _, n := range u.Cured.ChecksInserted {
		total += n
	}
	if total == 0 {
		t.Fatal("no checks inserted")
	}
	if u.Cured.ChecksInserted[cil.CheckSeq] == 0 {
		t.Error("expected SEQ bounds checks for the indexed pointer")
	}
}

func TestCuredLayoutSizes(t *testing.T) {
	u := build(t, corpus.Prelude+`
struct S { int x; int *p; char c; };
struct S *g;
int main(void) {
    g = (struct S *)malloc(sizeof(struct S));
    g->p = (int *)malloc(4 * sizeof(int));
    g->p[2] = 5;
    return g->p[2];
}
`, infer.Options{})
	var sTy *cil.Global
	for _, gl := range u.Cured.Prog.Globals {
		if gl.Var.Name == "g" {
			sTy = gl
		}
	}
	if sTy == nil {
		t.Fatal("missing global g")
	}
	elem := sTy.Var.Type.Elem
	cured := u.Cured.Lay.Sizeof(elem)
	raw := instrument.RawLayout{}.Sizeof(elem)
	// p is indexed, so it is SEQ (3 words instead of 1): the cured struct
	// must be larger than the C struct.
	if cured <= raw {
		t.Errorf("cured sizeof = %d, want > raw %d (SEQ field must widen)", cured, raw)
	}
}

// TestCuredLayoutMissPanics pins that the cured layout is read-only after
// Cure: a struct the program does not define is never laid out on demand,
// and a query for it panics naming the struct.
func TestCuredLayoutMissPanics(t *testing.T) {
	u := build(t, corpus.Prelude+`int main(void) { return 0; }`, infer.Options{})
	stray := ctypes.NewStruct("stray", false, 0)
	stray.Define([]*ctypes.Field{{Name: "x", Type: ctypes.IntT()}})
	for name, query := range map[string]func(){
		"Sizeof":   func() { u.Cured.Lay.Sizeof(ctypes.StructType(stray)) },
		"Alignof":  func() { u.Cured.Lay.Alignof(ctypes.StructType(stray)) },
		"FieldOff": func() { u.Cured.Lay.FieldOff(stray.Fields[0]) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "stray") {
					t.Errorf("%s on a struct the program lacks: recovered %v, want a panic naming stray", name, r)
				}
			}()
			query()
		}()
	}
}

func TestWrapperRedirection(t *testing.T) {
	// Figure 3's strchr wrapper: calls to strchr are replaced by the
	// wrapper, whose own strchr call reaches the library.
	src := corpus.Prelude + wrappers.Source + `
int main(void) {
    char *s = "hello, world";
    char *comma = strchr(s, ',');
    if (comma == 0) return 1;
    puts(comma + 2);
    return 0;
}
`
	u := build(t, src, infer.Options{})
	// The instrumented main must call strchr_wrapper.
	mainFn := u.Cured.Prog.Lookup("main")
	sawWrapper := false
	cil.WalkInstrs(mainFn.Body.Stmts, func(i cil.Instr) {
		if c, ok := i.(*cil.Call); ok {
			if fc, ok := c.Fn.(*cil.FnConst); ok && fc.Name == "strchr_wrapper" {
				sawWrapper = true
			}
		}
	})
	if !sawWrapper {
		t.Error("main's strchr call was not redirected to strchr_wrapper")
	}
	// Inside the wrapper, the call must still reach strchr itself.
	w := u.Cured.Prog.Lookup("strchr_wrapper")
	sawReal := false
	cil.WalkInstrs(w.Body.Stmts, func(i cil.Instr) {
		if c, ok := i.(*cil.Call); ok {
			if fc, ok := c.Fn.(*cil.FnConst); ok && fc.Name == "strchr" {
				sawReal = true
			}
		}
	})
	if !sawReal {
		t.Error("wrapper's own strchr call must not be redirected")
	}
	// And it runs correctly cured.
	out, err := u.RunCured(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trap != nil {
		t.Fatalf("cured trap: %v", out.Trap)
	}
	if !strings.Contains(out.Stdout, "world") {
		t.Errorf("stdout = %q", out.Stdout)
	}
}

func TestWrapperVerifyNulTraps(t *testing.T) {
	// A wrapper precondition failure: strlen of a string with no NUL
	// inside its bounds must trap in __verify_nul.
	src := corpus.Prelude + wrappers.Source + `
int main(void) {
    char buf[8];
    int i;
    for (i = 0; i < 8; i++) buf[i] = 'x';   /* no terminator */
    return strlen_wrapper(buf);
}
`
	u := build(t, src, infer.Options{})
	out, err := u.RunCured(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trap == nil {
		t.Fatal("expected __verify_nul to trap on the unterminated string")
	}
}

func TestWrapperNames(t *testing.T) {
	names := wrappers.Names()
	if len(names) < 8 {
		t.Errorf("wrapper set too small: %v", names)
	}
	want := map[string]bool{"strchr": false, "strcpy": false, "strlen": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("missing wrapper for %s", n)
		}
	}
}

func TestCheckPositionsCarrySource(t *testing.T) {
	u := build(t, corpus.Prelude+`
int main(void) {
    int *p = (int *)malloc(8);
    *p = 3;
    return *p;
}
`, infer.Options{})
	found := false
	for _, f := range u.Cured.Prog.Funcs {
		cil.WalkInstrs(f.Body.Stmts, func(i cil.Instr) {
			if c, ok := i.(*cil.Check); ok && c.Position().IsValid() {
				found = true
			}
		})
	}
	if !found {
		t.Error("checks should carry source positions for diagnostics")
	}
}
