package vm_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"gocured/internal/cil"
	"gocured/internal/core"
	"gocured/internal/corpus"
	"gocured/internal/ctypes"
	"gocured/internal/infer"
	"gocured/internal/instrument"
	"gocured/internal/vm"
)

// lowersEveryFunc compiles prog and fails unless every function lowered:
// the VM is the only production engine, so there is no fallback for a
// function the compiler leaves out.
func lowersEveryFunc(t *testing.T, label string, prog *cil.Program, lay vm.Layout) {
	t.Helper()
	if mod := vm.Compile(prog, lay); len(mod.Funcs) != len(prog.Funcs) {
		t.Fatalf("%s: lowered %d of %d functions", label, len(mod.Funcs), len(prog.Funcs))
	}
}

// TestCompileLowersEveryFunction lowers every corpus program and the
// explain example under both the raw layout and the cured layout.
func TestCompileLowersEveryFunction(t *testing.T) {
	wild, err := os.ReadFile("../../examples/explain/wild.c")
	if err != nil {
		t.Fatalf("read example: %v", err)
	}
	progs := append(corpus.All(), &corpus.Program{Name: "wild", Source: string(wild)})
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			u, err := core.Build(p.Name+".c", p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			lowersEveryFunc(t, "raw", u.Raw, instrument.RawLayout{})
			lowersEveryFunc(t, "cured", u.Cured.Prog, u.Cured.Lay)
		})
	}
}

// TestCompilePanicsNamingFunction hand-builds a function whose body reads
// a local that is in neither its parameters nor its locals, so the frame
// layout has no slot for it. Compile must fail loudly with an internal
// compiler error that names the function.
func TestCompilePanicsNamingFunction(t *testing.T) {
	intT := ctypes.IntT()
	orphan := &cil.Var{Name: "orphan", Type: intT}
	fn := &cil.Func{
		Name: "noslot",
		Type: ctypes.FuncType(intT, nil, nil, false),
		Body: &cil.Block{Stmts: []cil.Stmt{
			&cil.Return{X: &cil.Lval{LV: &cil.Lvalue{Var: orphan, Ty: intT}}},
		}},
	}
	prog := &cil.Program{Funcs: []*cil.Func{fn}, FuncMap: map[string]*cil.Func{fn.Name: fn}}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "vm: compile noslot: ") || !strings.Contains(msg, `"orphan"`) {
			t.Fatalf("Compile panic = %q, want an internal compiler error naming noslot and orphan", msg)
		}
	}()
	vm.Compile(prog, instrument.RawLayout{})
	t.Fatal("Compile lowered a function that reads a slotless local")
}

// TestOpNames checks that the name table covers every opcode once, so
// dumps and the opcode-coverage test name each opcode correctly.
func TestOpNames(t *testing.T) {
	seen := map[string]vm.Op{}
	for op := vm.Op(0); op < vm.NumOps; op++ {
		name := op.String()
		if name == "op?" || name == "" {
			t.Errorf("opcode %d has no name", op)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d share the name %q", prev, op, name)
		}
		seen[name] = op
	}
	if got := vm.NumOps.String(); got != "op?" {
		t.Errorf("NumOps is named %q: the table has more names than opcodes", got)
	}
}
