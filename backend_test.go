package gocured_test

// Golden equivalence of the two interpreter backends: for every corpus
// program (plus the examples' C sources and a trapping exploit run), the
// tree walker and the bytecode VM must produce byte-identical Results —
// stdout, exit code, every counter, the full per-site check table, and on
// trapping runs the trap kind/message/position/stack and the inference
// blame chain. reflect.DeepEqual over the whole Result struct enforces
// all of it at once; any intentional divergence would have to be carved
// out explicitly here.

import (
	"os"
	"reflect"
	"testing"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/interp"
)

// runBoth executes one compiled program on both backends and fails the
// test on any Result difference. The VM leg is the public Run; the tree
// leg reaches the reference walker through the test-only hook.
func runBoth(t *testing.T, prog *gocured.Program, opt gocured.RunOptions) {
	t.Helper()
	tree, err := gocured.RunOnBackend(prog, gocured.ModeCured, opt, interp.BackendTree)
	if err != nil {
		t.Fatalf("tree run: %v", err)
	}
	vm, err := prog.Run(gocured.ModeCured, opt)
	if err != nil {
		t.Fatalf("vm run: %v", err)
	}
	if !reflect.DeepEqual(tree, vm) {
		t.Errorf("backends disagree:\ntree: %+v\nvm:   %+v", tree, vm)
	}
}

func TestBackendsGoldenOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus backend comparison is not -short")
	}
	for _, p := range corpus.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := gocured.Compile(p.Name+".c", p.Source, gocured.Options{TrustBadCasts: p.TrustBadCasts})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			runBoth(t, prog, gocured.RunOptions{})
		})
	}
}

// TestBackendsGoldenOnTrap drives the ftpd exploit session: both backends
// must trap at the same site with the same message, stack, and blame
// chain (the Result carries all of them).
func TestBackendsGoldenOnTrap(t *testing.T) {
	p := corpus.ByName("ftpd")
	prog, err := gocured.Compile("ftpd.c", p.Source, gocured.Options{TrustBadCasts: p.TrustBadCasts})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opt := gocured.RunOptions{Stdin: []byte(corpus.FtpdExploitInput)}
	vm, err := prog.Run(gocured.ModeCured, opt)
	if err != nil {
		t.Fatalf("vm run: %v", err)
	}
	if !vm.Trapped {
		t.Fatal("cured ftpd exploit did not trap on the vm backend")
	}
	runBoth(t, prog, opt)
}

// TestBackendsGoldenOnExamples covers the C sources under examples/.
func TestBackendsGoldenOnExamples(t *testing.T) {
	src, err := os.ReadFile("examples/explain/wild.c")
	if err != nil {
		t.Fatalf("read example: %v", err)
	}
	prog, err := gocured.Compile("wild.c", string(src), gocured.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	runBoth(t, prog, gocured.RunOptions{})
}
