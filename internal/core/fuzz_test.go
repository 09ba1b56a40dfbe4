package core_test

import (
	"os"
	"strings"
	"testing"

	"gocured/internal/cil"
	"gocured/internal/core"
	"gocured/internal/infer"
	"gocured/internal/instrument"
	"gocured/internal/vm"
)

// FuzzCompile pushes arbitrary input through the whole build pipeline —
// parse, sema, lower, inference, curing, optimization, bytecode — asserting
// it never panics. Bad programs must be rejected with an error carrying
// diagnostics, not a crash. Every program that builds must also lower to
// bytecode in full, raw and cured: the VM is the only production engine,
// so an IR shape it cannot lower is a bug the fuzzer must surface.
func FuzzCompile(f *testing.F) {
	if data, err := os.ReadFile("../../examples/explain/wild.c"); err == nil {
		f.Add(string(data))
	}
	for _, path := range []string{
		"../../examples/quickstart/main.go",
		"../../examples/oop/main.go",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		s := string(data)
		if i := strings.Index(s, "const src = `"); i >= 0 {
			s = s[i+len("const src = `"):]
			if j := strings.Index(s, "`"); j >= 0 {
				f.Add(s[:j])
			}
		}
	}
	f.Add(`int main(void) { int a[4]; return a[4]; }`)
	f.Add(`struct S; int f(struct S *p) { return *(int *)p; }`)
	f.Add(`int main(void) { void *p = 0; return *(int *)p; }`)
	f.Fuzz(func(t *testing.T, src string) {
		// Both optimizer settings must survive any input that builds.
		for _, opts := range []infer.Options{{}, {NoOptimize: true}} {
			u, err := core.Build("fuzz.c", src, opts)
			if err != nil {
				continue
			}
			lowersAll(t, u.Raw, instrument.RawLayout{})
			lowersAll(t, u.Cured.Prog, u.Cured.Lay)
		}
	})
}

// lowersAll compiles prog to bytecode; vm.Compile panics on a function it
// cannot lower, and the count check guards against a silent omission.
func lowersAll(t *testing.T, prog *cil.Program, lay vm.Layout) {
	if mod := vm.Compile(prog, lay); len(mod.Funcs) != len(prog.Funcs) {
		t.Fatalf("vm lowered %d of %d functions", len(mod.Funcs), len(prog.Funcs))
	}
}
