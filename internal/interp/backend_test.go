package interp_test

import (
	"strings"
	"testing"

	"gocured/internal/core"
	"gocured/internal/infer"
	"gocured/internal/interp"
)

// VM-specific accounting semantics: the step limit and the back-edge
// charge on an empty infinite loop must match the tree walker exactly —
// this is the loop shape where the bytecode compiler's fused OpJumpBack
// (back-edge charge folded into the loop-tail jump) carries all of the
// accounting.

func buildOrDie(t *testing.T, src string) *core.Unit {
	t.Helper()
	u, err := core.Build("backend.c", src, infer.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return u
}

func TestVMStepLimitOnEmptyLoop(t *testing.T) {
	u := buildOrDie(t, `int main(void) { for (;;) {} return 0; }`)
	const limit = 1000

	vm, err := u.RunCured(interp.Config{StepLimit: limit, Backend: interp.BackendVM})
	if err != nil {
		t.Fatalf("run vm: %v", err)
	}
	if vm.Trap == nil || vm.Trap.Kind != "timeout" {
		t.Fatalf("vm: want timeout trap, got %+v", vm.Trap)
	}
	if !strings.Contains(vm.Trap.Msg, "step limit (1000) exceeded") {
		t.Fatalf("vm trap message = %q", vm.Trap.Msg)
	}
	// The trap fires on the first step past the limit, so the counter
	// reads exactly limit+1 — back edges count against the limit.
	if vm.Counters.Steps != limit+1 {
		t.Fatalf("vm steps = %d, want %d", vm.Counters.Steps, limit+1)
	}
	// Back edges charge no simulated cycles (they are accounting, not
	// work), so almost all of the run's steps contribute no cost.
	if vm.Counters.Cost >= vm.Counters.Steps {
		t.Fatalf("back edges charged cost: cost %d >= steps %d", vm.Counters.Cost, vm.Counters.Steps)
	}

	tree, err := u.RunCured(interp.Config{StepLimit: limit, Backend: interp.BackendTree})
	if err != nil {
		t.Fatalf("run tree: %v", err)
	}
	if tree.Counters.Steps != vm.Counters.Steps || tree.Counters.Cost != vm.Counters.Cost {
		t.Fatalf("backends diverge on the empty loop: tree steps/cost %d/%d, vm %d/%d",
			tree.Counters.Steps, tree.Counters.Cost, vm.Counters.Steps, vm.Counters.Cost)
	}
	if tree.Trap == nil || tree.Trap.Kind != vm.Trap.Kind || tree.Trap.Msg != vm.Trap.Msg ||
		tree.Trap.Pos != vm.Trap.Pos {
		t.Fatalf("backends diverge on the timeout trap:\ntree: %+v\nvm:   %+v", tree.Trap, vm.Trap)
	}
}

// BenchmarkDeepRecursion demonstrates activation-record pooling: a deep
// call chain reuses frames from the Machine's pool instead of allocating
// one record (plus, on the VM, one register file) per call.
func BenchmarkDeepRecursion(b *testing.B) {
	const src = `
int rec(int n) {
    if (n) return rec(n - 1) + 1;
    return 0;
}
int main(void) { return rec(400); }
`
	u, err := core.Build("recur.c", src, infer.Options{})
	if err != nil {
		b.Fatalf("build: %v", err)
	}
	for _, backend := range []interp.Backend{interp.BackendVM, interp.BackendTree} {
		b.Run(backend.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := u.RunCured(interp.Config{Backend: backend})
				if err != nil {
					b.Fatal(err)
				}
				if out.ExitCode != 400 {
					b.Fatalf("exit code %d, want 400", out.ExitCode)
				}
			}
		})
	}
}
