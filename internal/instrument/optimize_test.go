package instrument_test

import (
	"testing"

	"gocured/internal/cil"
	"gocured/internal/corpus"
	"gocured/internal/infer"
	"gocured/internal/interp"
)

func checksIn(fn *cil.Func) int {
	n := 0
	cil.WalkInstrs(fn.Body.Stmts, func(i cil.Instr) {
		if _, ok := i.(*cil.Check); ok {
			n++
		}
	})
	return n
}

func TestOptimizerRemovesDuplicateChecks(t *testing.T) {
	// Reading *p twice in one expression emits two null checks; the
	// optimizer keeps one.
	u := build(t, corpus.Prelude+`
int twice(int *p) { return *p + *p; }
int main(void) {
    int x = 21;
    return twice(&x);
}
`, infer.Options{})
	if u.Cured.Opt.Removed() == 0 {
		t.Errorf("expected eliminated checks, got %d", u.Cured.Opt.Removed())
	}
	fn := u.Cured.Prog.Lookup("twice")
	if got := checksIn(fn); got != 1 {
		t.Errorf("twice retains %d checks, want 1", got)
	}
}

func TestOptimizerKillsOnAssignment(t *testing.T) {
	// p changes between the two dereferences: both checks must stay.
	u := build(t, corpus.Prelude+`
int g1, g2;
int f(int *p) {
    int a = *p;
    p = &g2;
    return a + *p;
}
int main(void) { return f(&g1); }
`, infer.Options{})
	fn := u.Cured.Prog.Lookup("f")
	if got := checksIn(fn); got < 2 {
		t.Errorf("f retains %d checks, want >= 2 (p is reassigned)", got)
	}
}

func TestOptimizerKillsAcrossCalls(t *testing.T) {
	// A call can change the heap cell pp points through; the second check
	// of **pp (memory-reading operand) must survive.
	u := build(t, corpus.Prelude+`
int **pp;
void mutate(void);
int f(void) {
    int a = **pp;
    mutate();
    return a + **pp;
}
int g;
int *inner;
void mutate(void) { inner = &g; }
int main(void) {
    inner = &g;
    pp = &inner;
    return f();
}
`, infer.Options{})
	fn := u.Cured.Prog.Lookup("f")
	// Two deref chains, each needing checks on pp and *pp: at least the
	// memory-dependent ones must re-check after the call.
	got := checksIn(fn)
	if got < 3 {
		t.Errorf("f retains %d checks, want >= 3 (call invalidates memory facts)", got)
	}
	// And the program still runs correctly.
	out, err := u.RunCured(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trap != nil {
		t.Fatalf("trap: %v", out.Trap)
	}
}

func TestOptimizerPreservesSemanticsOnCorpus(t *testing.T) {
	// The whole-corpus raw-vs-cured test already runs with the optimizer
	// on; here we just confirm it fires meaningfully on a large program.
	p := corpus.ByName("bind")
	u := build(t, p.Source, infer.Options{TrustBadCasts: true})
	if u.Cured.Opt.Removed() == 0 {
		t.Error("optimizer eliminated nothing on bind")
	}
	total := 0
	for _, n := range u.Cured.ChecksInserted {
		total += n
	}
	if u.Cured.Opt.Removed() >= total {
		t.Errorf("eliminated %d of %d checks: too aggressive", u.Cured.Opt.Removed(), total)
	}
}

func TestOptimizerIfJoinElimination(t *testing.T) {
	// Regression for the old straight-line pass, which dropped all facts at
	// every control-flow boundary: a check established before an if (and
	// not killed in either arm) must cover the code after the join.
	u := build(t, corpus.Prelude+`
int f(int *p, int c) {
    int a = *p;
    if (c) { a = a + 1; } else { a = a - 1; }
    return a + *p;
}
int main(void) {
    int x = 21;
    return f(&x, 1);
}
`, infer.Options{})
	fn := u.Cured.Prog.Lookup("f")
	if got := checksIn(fn); got != 1 {
		t.Errorf("f retains %d checks, want 1 (join inherits the pre-if fact)", got)
	}
	if u.Cured.Opt == nil || u.Cured.Opt.PerFunc["f"].Eliminated == 0 {
		t.Errorf("per-function stats do not record the join elimination")
	}
}

func TestOptimizerBothArmsEstablish(t *testing.T) {
	// The fact is established separately in both arms: availability is the
	// intersection over predecessors, so the post-join check still goes.
	u := build(t, corpus.Prelude+`
int f(int *p, int c) {
    int a;
    if (c) { a = *p; } else { a = *p + 1; }
    return a + *p;
}
int main(void) {
    int x = 21;
    return f(&x, 0);
}
`, infer.Options{})
	fn := u.Cured.Prog.Lookup("f")
	if got := checksIn(fn); got != 2 {
		t.Errorf("f retains %d checks, want 2 (one per arm, join check eliminated)", got)
	}
}

func TestOptimizerOneArmKills(t *testing.T) {
	// One arm reassigns p: the post-join check must survive.
	u := build(t, corpus.Prelude+`
int g;
int f(int *p, int c) {
    int a = *p;
    if (c) { p = &g; }
    return a + *p;
}
int main(void) {
    int x = 21;
    return f(&x, 0);
}
`, infer.Options{})
	fn := u.Cured.Prog.Lookup("f")
	if got := checksIn(fn); got != 2 {
		t.Errorf("f retains %d checks, want 2 (one arm kills the fact)", got)
	}
}

func TestOptimizerHoistsInvariantCheck(t *testing.T) {
	// *p inside the loop with p never modified: the check moves to a
	// preheader and the loop body runs check-free.
	u := build(t, corpus.Prelude+`
int f(int *p, int n) {
    int i, t;
    t = 0;
    for (i = 0; i < n; i++) t = t + *p;
    return t;
}
int main(void) {
    int x = 7;
    return f(&x, 3);
}
`, infer.Options{})
	if u.Cured.Opt.Hoisted == 0 {
		t.Fatalf("no checks hoisted: %+v", u.Cured.Opt)
	}
	// Dynamically the check must now execute at most once.
	out, err := u.RunCured(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trap != nil {
		t.Fatalf("trap: %v", out.Trap)
	}
	if out.Counters.Checks > 1 {
		t.Errorf("executed %d checks, want <= 1 after hoisting", out.Counters.Checks)
	}
	if out.ExitCode != 21 {
		t.Errorf("exit code %d, want 21", out.ExitCode)
	}
}

func TestOptimizerWidensInductionCheck(t *testing.T) {
	// a[i] under i < 8: the per-iteration bounds check becomes an entry +
	// endpoint pair in the preheader.
	u := build(t, corpus.Prelude+`
int main(void) {
    int a[8];
    int i, t;
    t = 0;
    for (i = 0; i < 8; i++) a[i] = i;
    for (i = 0; i < 8; i++) t = t + a[i];
    return t;
}
`, infer.Options{})
	if u.Cured.Opt.Widened != 2 {
		t.Fatalf("widened %d checks, want 2: %+v", u.Cured.Opt.Widened, u.Cured.Opt)
	}
	out, err := u.RunCured(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trap != nil {
		t.Fatalf("trap: %v", out.Trap)
	}
	if out.ExitCode != 28 {
		t.Errorf("exit code %d, want 28", out.ExitCode)
	}
	// 2 preheaders x 2 checks each = 4 executed checks instead of 16.
	if out.Counters.Checks > 4 {
		t.Errorf("executed %d checks, want <= 4 after widening", out.Counters.Checks)
	}
}

func TestOptimizerWideningStillTraps(t *testing.T) {
	// The classic off-by-one: i <= 8 over int[8]. The endpoint check must
	// trap with the same kind as the un-optimized program would.
	src := corpus.Prelude + `
int main(void) {
    int a[8];
    int i, t;
    t = 0;
    for (i = 0; i <= 8; i++) t = t + a[i];
    return t;
}
`
	for _, noOpt := range []bool{true, false} {
		u := build(t, src, infer.Options{NoOptimize: noOpt})
		out, err := u.RunCured(interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Trap == nil {
			t.Fatalf("NoOptimize=%v: overflow did not trap", noOpt)
		}
		if out.Trap.Kind != "bounds" {
			t.Errorf("NoOptimize=%v: trap kind %q, want bounds", noOpt, out.Trap.Kind)
		}
	}
}

func TestOptimizerNoWideningAcrossCalls(t *testing.T) {
	// A call in the loop makes early endpoint traps observable (the callee
	// could print); widening must not fire.
	u := build(t, corpus.Prelude+`
int main(void) {
    int a[8];
    int i;
    for (i = 0; i < 8; i++) { a[i] = i; printf("%d", a[i]); }
    return 0;
}
`, infer.Options{})
	if u.Cured.Opt.Widened != 0 {
		t.Errorf("widened %d checks in a loop containing a call, want 0", u.Cured.Opt.Widened)
	}
}

func TestOptimizerCoalescesAdjacentSeqChecks(t *testing.T) {
	// p[0]+p[1]+p[2] in one expression: three adjacent constant-offset SEQ
	// checks collapse into one widened check.
	u := build(t, corpus.Prelude+`
int sum3(int *p) { return p[0] + p[1] + p[2]; }
int main(void) {
    int a[3];
    a[0] = 1; a[1] = 2; a[2] = 3;
    return sum3(a);
}
`, infer.Options{})
	if u.Cured.Opt.Coalesced == 0 {
		t.Fatalf("no checks coalesced: %+v", u.Cured.Opt)
	}
	fn := u.Cured.Prog.Lookup("sum3")
	if got := checksIn(fn); got != 1 {
		t.Errorf("sum3 retains %d checks, want 1 widened check", got)
	}
	out, err := u.RunCured(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trap != nil {
		t.Fatalf("trap: %v", out.Trap)
	}
	if out.ExitCode != 6 {
		t.Errorf("exit code %d, want 6", out.ExitCode)
	}
}

func TestOptimizerCoalescedCheckStillTraps(t *testing.T) {
	// The widened check covers the max offset: passing a 2-element buffer
	// to sum3 must trap even though p[2]'s own check was coalesced away.
	src := corpus.Prelude + `
int sum3(int *p) { return p[0] + p[1] + p[2]; }
int main(void) {
    int a[2];
    a[0] = 1; a[1] = 2;
    return sum3(a);
}
`
	for _, noOpt := range []bool{true, false} {
		u := build(t, src, infer.Options{NoOptimize: noOpt})
		out, err := u.RunCured(interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Trap == nil {
			t.Fatalf("NoOptimize=%v: undersized buffer did not trap", noOpt)
		}
		if out.Trap.Kind != "bounds" {
			t.Errorf("NoOptimize=%v: trap kind %q, want bounds", noOpt, out.Trap.Kind)
		}
	}
}

func TestOptimizerNoOptimizeDisables(t *testing.T) {
	u := build(t, corpus.Prelude+`
int twice(int *p) { return *p + *p; }
int main(void) {
    int x = 21;
    return twice(&x);
}
`, infer.Options{NoOptimize: true})
	if u.Cured.Opt != nil {
		t.Errorf("Opt stats present at -O0")
	}
	fn := u.Cured.Prog.Lookup("twice")
	if got := checksIn(fn); got < 2 {
		t.Errorf("twice retains %d checks at -O0, want >= 2", got)
	}
}

func TestOptimizerLoopBreakPinsChecks(t *testing.T) {
	// An extra conditional break after the guard must disable widening:
	// the endpoint check could trap on a run that exits early at i == 1
	// and never touches a[7].
	u := build(t, corpus.Prelude+`
int g;
int main(void) {
    int a[8];
    int i;
    for (i = 0; i < 8; i++) {
        if (g) break;
        a[i] = i;
    }
    return a[0];
}
`, infer.Options{})
	if u.Cured.Opt.Widened != 0 {
		t.Errorf("widened %d checks in a loop with a second exit, want 0", u.Cured.Opt.Widened)
	}
}
