package interp_test

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gocured/internal/core"
	"gocured/internal/infer"
	"gocured/internal/interp"
	"gocured/internal/store"
)

// Differential testing: generate random C programs exercising pointers
// (SAFE and SEQ via arithmetic), structs with physical-subtyping casts,
// address-of, and loops — including the shapes the check optimizer
// rewrites (invariant checks, induction-variable bounds checks, adjacent
// constant offsets) and the ones its kill rule must respect (nested loops
// with early exits, stores through aliases, an if arm that kills a fact)
// — and demand that four executions agree:
//
//	raw          the uninstrumented program (skipped when the program is
//	             built to trap: a trapping program is UB raw)
//	tree -O0     every check the curer inserted, on the tree walker
//	tree -O      the CFG optimizer's output, on the tree walker
//	vm   -O0/-O  the same two builds on the bytecode VM
//
// The -O0 vs -O comparison is the optimizer's soundness oracle: same
// stdout, same exit code, same trap-or-not, same trap kind, same trap
// line. A hoisted or widened check may fire earlier in *time*, but only on
// executions that trap either way, so no observable difference is
// tolerated. Most generated programs are trap-free; a fraction contain a
// deliberate out-of-bounds access so the trap paths are exercised too.
//
// The tree vs vm comparison is the bytecode backend's soundness oracle and
// is stricter: the two backends execute the *same* instrumented program,
// so they must agree bit-for-bit on everything — stdout, exit code, the
// trap's kind/message/position/stack, every counter (steps, checks,
// per-kind tallies, simulated cycles), raw memory traffic, and the entire
// per-site attribution table.

type progGen struct {
	rng   uint64
	b     strings.Builder
	depth int
	// oob records that the program contains a deliberate out-of-bounds
	// access (raw execution is UB and is skipped).
	oob bool
	// oobPending: that access is still to be emitted, so no early return
	// may skip it.
	oobPending bool
}

func (g *progGen) next() uint64 {
	g.rng = g.rng*6364136223846793005 + 1442695040888963407
	return g.rng >> 17
}

func (g *progGen) pick(n int) int { return int(g.next() % uint64(n)) }

// scalars are the generated program's locals of the other integer
// widths and signednesses: assignments to them wrap, and mixing them into
// expressions makes comparisons unsigned and arithmetic 64-bit.
var scalars = [...]string{"c0", "uc0", "s0", "u0", "ll0"}

func (g *progGen) scalar() string { return scalars[g.pick(len(scalars))] }

// expr emits an integer expression over the in-scope names.
func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.pick(3) == 0 {
		switch g.pick(9) {
		case 8:
			return g.scalar()
		case 0:
			return fmt.Sprintf("%d", g.pick(100))
		case 1:
			return fmt.Sprintf("v%d", g.pick(3))
		case 2:
			return fmt.Sprintf("arr[%d]", g.pick(8))
		case 3:
			return fmt.Sprintf("g%d", g.pick(2))
		case 4:
			return "(*q)" // SAFE deref
		case 5:
			return fmt.Sprintf("p[%d]", g.pick(4)) // SEQ deref, base offset <= 3
		case 6:
			return "sp->tag" // through the upcast pointer
		default:
			return fmt.Sprintf("tt.data[%d]", g.pick(4))
		}
	}
	a := g.expr(depth - 1)
	b := g.expr(depth - 1)
	switch g.pick(14) {
	case 7:
		return fmt.Sprintf("(%s << ((%s) & 31))", a, b)
	case 8:
		// Constant counts of 32 and up exercise the interpreter's
		// shift-count masking.
		return fmt.Sprintf("(%s >> %d)", a, g.pick(70))
	case 9:
		return fmt.Sprintf("(%s & %s)", a, b)
	case 10:
		return fmt.Sprintf("(%s | %s)", a, b)
	case 11:
		return fmt.Sprintf("(%s <= %s)", a, b)
	case 12:
		return fmt.Sprintf("(%s >= %s)", a, b)
	case 13:
		return fmt.Sprintf("(%s %s %s)", a, [...]string{"==", "!="}[g.pick(2)], b)
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s / (1 + ((%s) & 7)))", a, b) // no div-by-zero
	case 4:
		return fmt.Sprintf("(%s %% (1 + ((%s) & 15)))", a, b)
	case 5:
		return fmt.Sprintf("(%s ^ %s)", a, b)
	default:
		return fmt.Sprintf("(%s < %s)", a, b)
	}
}

func (g *progGen) stmt(depth int) {
	ind := strings.Repeat("    ", g.depth+1)
	switch g.pick(20) {
	case 14:
		// Narrowing store: wraps to the scalar's width.
		fmt.Fprintf(&g.b, "%s%s = %s;\n", ind, g.scalar(), g.expr(depth))
	case 15:
		fmt.Fprintf(&g.b, "%s%s += %s;\n", ind, g.scalar(), g.expr(depth))
	case 0:
		fmt.Fprintf(&g.b, "%sv%d = %s;\n", ind, g.pick(3), g.expr(depth))
	case 1:
		// In-bounds array store (index masked to the array length).
		fmt.Fprintf(&g.b, "%sarr[(%s) & 7] = %s;\n", ind, g.expr(1), g.expr(depth))
	case 2:
		fmt.Fprintf(&g.b, "%sg%d += %s;\n", ind, g.pick(2), g.expr(depth))
	case 3:
		if depth > 0 {
			fmt.Fprintf(&g.b, "%sif (%s) {\n", ind, g.expr(1))
			g.depth++
			g.stmt(depth - 1)
			g.depth--
			if g.pick(2) == 0 {
				fmt.Fprintf(&g.b, "%s} else {\n", ind)
				g.depth++
				g.stmt(depth - 1)
				g.depth--
			}
			fmt.Fprintf(&g.b, "%s}\n", ind)
		} else {
			fmt.Fprintf(&g.b, "%sv0 = v0 + 1;\n", ind)
		}
	case 4:
		// Widenable loop: induction-variable bounds checks under a
		// constant limit.
		fmt.Fprintf(&g.b, "%sfor (i = 0; i < 8; i++) { acc += arr[i]; }\n", ind)
	case 5:
		// Hoistable loop: the checks on p and q are loop-invariant.
		fmt.Fprintf(&g.b, "%sfor (i = 0; i < %d; i++) { acc += *q + p[0]; }\n", ind, 2+g.pick(5))
	case 6:
		// SEQ pointer re-aim + adjacent constant offsets (coalescing).
		fmt.Fprintf(&g.b, "%sp = arr + %d; acc += p[0] + p[1] + p[2];\n", ind, g.pick(4))
	case 7:
		// SAFE pointer re-aim via address-of.
		fmt.Fprintf(&g.b, "%sq = &v%d; *q = *q + %d;\n", ind, g.pick(3), g.pick(9))
	case 8:
		// Address of an array element: SEQ via &arr[k].
		fmt.Fprintf(&g.b, "%sp = &arr[(%s) & 3]; acc += p[1];\n", ind, g.expr(1))
	case 9:
		// Physical-subtyping upcast and access through it.
		fmt.Fprintf(&g.b, "%ssp = (struct S *)&tt; sp->tag = %s; acc += sp->data[%d];\n",
			ind, g.expr(depth), g.pick(4))
	case 10:
		// Struct stores, direct and through the upcast view.
		fmt.Fprintf(&g.b, "%stt.data[(%s) & 3] = %s; tt.extra = tt.extra + 1;\n",
			ind, g.expr(1), g.expr(depth))
	case 11:
		// Call with pointer argument (kills memory facts at the call site).
		fmt.Fprintf(&g.b, "%sacc += helper(v%d, arr);\n", ind, g.pick(3))
	case 12:
		fmt.Fprintf(&g.b, "%sacc += deref(q) + deref(&v%d);\n", ind, g.pick(3))
	case 16:
		// Nested loops left by break and continue: the inner loop has two
		// exits, the outer one a continue and a second break.
		fmt.Fprintf(&g.b, "%sfor (i = 0; i < 8; i++) { if (arr[i] & %d) continue; "+
			"for (j = 0; j < 4; j++) { if (j == %d) break; acc += p[0] + tt.data[j] + arr[i]; } "+
			"if (i == %d) break; }\n", ind, 1+g.pick(3), g.pick(5), g.pick(9))
	case 17:
		// Early return from inside a loop whose prefix checks hoist.
		exit := fmt.Sprintf("return %d;", g.pick(4))
		if g.oobPending {
			exit = "break;"
		}
		fmt.Fprintf(&g.b, "%sfor (i = 0; i < 8; i++) { acc += *q + arr[i]; "+
			"if (((acc + i) & 31) == %d) { printf(\"%%d\\n\", acc); %s } }\n",
			ind, g.pick(32), exit)
	case 18:
		// A store through q aliases the loop bound, which the guard
		// re-reads every iteration.
		v := g.pick(3)
		fmt.Fprintf(&g.b, "%sq = &v%d; for (i = 0; i < (v%d & 7); i++) { acc += arr[i] + *q; *q = *q - %d; }\n",
			ind, v, v, 1+g.pick(2))
	case 19:
		// A repeated check separated by an if whose one arm kills its
		// fact: the check after the join must stay.
		var kill string
		switch g.pick(4) {
		case 0:
			kill = fmt.Sprintf("p = arr + %d;", g.pick(4))
		case 1:
			kill = fmt.Sprintf("q = &v%d;", g.pick(3))
		case 2:
			kill = fmt.Sprintf("*q = %s;", g.expr(1))
		default:
			kill = fmt.Sprintf("acc += helper(v%d, arr);", g.pick(3))
		}
		fmt.Fprintf(&g.b, "%sacc += p[1] + *q; if (%s) { %s } else { acc += 1; } acc += p[1] + *q;\n",
			ind, g.expr(1), kill)
	default:
		// Nested loop writing through a moving SEQ pointer.
		fmt.Fprintf(&g.b, "%sfor (i = 0; i < 4; i++) { p = arr + i; p[0] = p[0] + v%d; }\n",
			ind, g.pick(3))
	}
}

// oobStmt injects one deliberately out-of-bounds access; the cured builds
// must trap identically on it.
func (g *progGen) oobStmt() {
	g.oob = true
	ind := strings.Repeat("    ", g.depth+1)
	switch g.pick(7) {
	case 4:
		// A store through an alias moves the index of a repeated access
		// past the end: the second check must not count as available.
		v := g.pick(3)
		fmt.Fprintf(&g.b, "%sq = &v%d; v%d = %d; acc += arr[v%d]; *q = 8; acc += arr[v%d];\n",
			ind, v, v, g.pick(8), v, v)
	case 5:
		// A store through an alias raises the loop bound mid-loop.
		v := g.pick(3)
		fmt.Fprintf(&g.b, "%sq = &v%d; v%d = 4; for (i = 0; i < v%d; i++) { acc += arr[i + 4]; if (i == 1) *q = 6; }\n",
			ind, v, v, v)
	case 6:
		// The taken arm of an if re-aims p past the end between two
		// identical accesses.
		fmt.Fprintf(&g.b, "%sp = arr + 4; acc += p[3]; if ((%s) | 1) { p = arr + 6; } else { acc += 1; } acc += p[3];\n",
			ind, g.expr(1))
	case 0:
		// Constant index one past the end.
		fmt.Fprintf(&g.b, "%sacc += arr[8];\n", ind)
	case 1:
		// The classic off-by-one loop (widenable shape: the endpoint check
		// must trap exactly like the per-iteration check).
		fmt.Fprintf(&g.b, "%sfor (i = 0; i <= 8; i++) { acc += arr[i]; }\n", ind)
	case 2:
		// SEQ arithmetic past the end, then a read.
		fmt.Fprintf(&g.b, "%sp = arr + 7; acc += p[2];\n", ind)
	default:
		// Coalescing shape where a later member is out of bounds.
		fmt.Fprintf(&g.b, "%sp = arr + 6; acc += p[0] + p[1] + p[2];\n", ind)
	}
}

// generate produces one random program. The fixed frame declares scalars,
// two structs related by physical subtyping, a SEQ pointer into an array,
// and a SAFE pointer to a scalar, so every statement the generator emits
// has well-typed material to work with.
func generate(seed uint64) (string, bool) {
	g := &progGen{rng: seed*2654435761 + 1}
	g.b.WriteString(`
extern int printf(char *fmt, ...);
struct S { int tag; int data[4]; };
struct T { int tag; int data[4]; int extra; };
int g0 = 3;
int g1 = 7;

int helper(int x, int *a) {
    int k, t = x;
    for (k = 0; k < 8; k++) t += a[k] * (k + 1);
    return t;
}

int deref(int *p) { return *p; }

int main(void) {
    int v0 = 1, v1 = 2, v2 = 3;
    int arr[8];
    struct T tt;
    struct S *sp;
    int *p = arr;
    int *q = &v0;
    int i, j, acc = 0;
    char c0 = -7;
    unsigned char uc0 = 250;
    short s0 = -300;
    unsigned u0 = 4000000000;
    long long ll0 = 5;
    for (i = 0; i < 8; i++) arr[i] = i * 5;
    tt.tag = 1; tt.extra = 2;
    for (i = 0; i < 4; i++) tt.data[i] = i + 10;
    sp = (struct S *)&tt;
`)
	n := 6 + g.pick(8)
	oobAt := -1
	if g.pick(5) == 0 { // ~20% of programs exercise a trap path
		oobAt = g.pick(n)
		g.oobPending = true
	}
	for i := 0; i < n; i++ {
		if i == oobAt {
			g.oobStmt()
			g.oobPending = false
			continue
		}
		g.stmt(2)
	}
	g.b.WriteString(`
    acc += v0 + 2 * v1 + 3 * v2 + g0 + g1 + *p + *q;
    acc += sp->tag + tt.extra;
    acc += c0 + uc0 + s0 + (int)u0 + (int)(ll0 ^ (ll0 >> 32));
    for (i = 0; i < 8; i++) acc = acc * 31 + arr[i];
    for (i = 0; i < 4; i++) acc = acc * 17 + tt.data[i];
    printf("%d\n", acc);
    return 0;
}
`)
	return g.b.String(), g.oob
}

// trapLine reduces a rendered trap position to file:line — coalescing may
// move a trap to a sibling column of the same source line, which is an
// allowed difference.
func trapLine(pos string) string {
	parts := strings.Split(pos, ":")
	if len(parts) >= 2 {
		return parts[0] + ":" + parts[1]
	}
	return pos
}

// identicalBackends demands bit-exact agreement between a tree-walker and
// a VM execution of the same instrumented program.
func identicalBackends(label string, tree, vmo *interp.Outcome) error {
	if tree.Stdout != vmo.Stdout {
		return fmt.Errorf("%s stdout diverges between backends:\ntree: %q\nvm:   %q", label, tree.Stdout, vmo.Stdout)
	}
	if tree.ExitCode != vmo.ExitCode {
		return fmt.Errorf("%s exit code diverges between backends: tree %d, vm %d", label, tree.ExitCode, vmo.ExitCode)
	}
	if (tree.Trap == nil) != (vmo.Trap == nil) {
		return fmt.Errorf("%s trap diverges between backends: tree %v, vm %v", label, tree.Trap, vmo.Trap)
	}
	if tree.Trap != nil {
		if tree.Trap.Kind != vmo.Trap.Kind || tree.Trap.Msg != vmo.Trap.Msg ||
			tree.Trap.Pos != vmo.Trap.Pos || !reflect.DeepEqual(tree.Trap.Stack, vmo.Trap.Stack) {
			return fmt.Errorf("%s trap detail diverges between backends:\ntree: %+v\nvm:   %+v", label, tree.Trap, vmo.Trap)
		}
	}
	tc, vc := &tree.Counters, &vmo.Counters
	if tc.Steps != vc.Steps || tc.Checks != vc.Checks || tc.Cost != vc.Cost || tc.ChecksByKind != vc.ChecksByKind {
		return fmt.Errorf("%s counters diverge between backends:\ntree: steps %d checks %d cost %d %v\nvm:   steps %d checks %d cost %d %v",
			label, tc.Steps, tc.Checks, tc.Cost, tc.ChecksByKind, vc.Steps, vc.Checks, vc.Cost, vc.ChecksByKind)
	}
	if tree.MemLoads != vmo.MemLoads || tree.MemStores != vmo.MemStores {
		return fmt.Errorf("%s memory traffic diverges between backends: tree %d/%d, vm %d/%d",
			label, tree.MemLoads, tree.MemStores, vmo.MemLoads, vmo.MemStores)
	}
	if !reflect.DeepEqual(tc.Sites, vc.Sites) {
		return fmt.Errorf("%s per-site check attribution diverges between backends", label)
	}
	return nil
}

// fuzzStore lazily opens one on-disk artifact store shared by every fuzz
// seed's store leg (each seed addresses disjoint chunks by content).
var fuzzStore = sync.OnceValue(func() *store.Artifacts {
	dir, err := os.MkdirTemp("", "gocured-fuzz-store-")
	if err != nil {
		panic(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	return store.NewArtifacts(s, "fuzz", "go-fuzz")
})

// checkSeed builds and runs one generated program all four ways and
// reports any disagreement.
func checkSeed(seed uint64) error {
	src, oob := generate(seed)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d: %s\nprogram:\n%s", seed, fmt.Sprintf(format, args...), src)
	}

	u0, err := core.Build("fuzz.c", src, infer.Options{NoOptimize: true})
	if err != nil {
		return fail("build -O0 failed: %v", err)
	}
	uo, err := core.Build("fuzz.c", src, infer.Options{})
	if err != nil {
		return fail("build -O failed: %v", err)
	}

	// The default backend is the VM, so c0/co are the bytecode legs.
	c0, err := u0.RunCured(interp.Config{})
	if err != nil {
		return fail("run cured -O0: %v", err)
	}
	co, err := uo.RunCured(interp.Config{})
	if err != nil {
		return fail("run cured -O: %v", err)
	}
	t0, err := u0.RunCured(interp.Config{Backend: interp.BackendTree})
	if err != nil {
		return fail("run cured -O0 (tree): %v", err)
	}
	to, err := uo.RunCured(interp.Config{Backend: interp.BackendTree})
	if err != nil {
		return fail("run cured -O (tree): %v", err)
	}
	if err := identicalBackends("-O0", t0, c0); err != nil {
		return fail("%v", err)
	}
	if err := identicalBackends("-O", to, co); err != nil {
		return fail("%v", err)
	}

	// The optimizer must be observably invisible: -O0 and -O agree on
	// everything a user can see.
	if c0.Stdout != co.Stdout {
		return fail("stdout diverges:\n-O0: %q\n-O:  %q", c0.Stdout, co.Stdout)
	}
	if (c0.Trap == nil) != (co.Trap == nil) {
		return fail("trap diverges: -O0 %v, -O %v", c0.Trap, co.Trap)
	}
	if c0.Trap != nil {
		if c0.Trap.Kind != co.Trap.Kind {
			return fail("trap kind diverges: -O0 %q, -O %q", c0.Trap.Kind, co.Trap.Kind)
		}
		if trapLine(c0.Trap.Pos) != trapLine(co.Trap.Pos) {
			return fail("trap site diverges: -O0 %s, -O %s", c0.Trap.Pos, co.Trap.Pos)
		}
	} else if c0.ExitCode != co.ExitCode {
		return fail("exit code diverges: -O0 %d, -O %d", c0.ExitCode, co.ExitCode)
	}

	// Store leg (every 8th seed): the same program built through the
	// persistent artifact store — cold (recording summaries) and warm
	// (replaying them) — must be indistinguishable from the fresh -O
	// build: identical static stats and a bit-identical execution.
	if seed%8 == 0 {
		sums := fuzzStore().ForOptions(infer.Options{})
		ucold, err := core.BuildStored("fuzz.c", src, infer.Options{}, sums)
		if err != nil {
			return fail("build stored (cold) failed: %v", err)
		}
		uwarm, err := core.BuildStored("fuzz.c", src, infer.Options{}, sums)
		if err != nil {
			return fail("build stored (warm) failed: %v", err)
		}
		if uwarm.Incr.Loaded != uwarm.Incr.Funcs-uwarm.Incr.Unstorable {
			return fail("warm stored build did not replay: %+v", uwarm.Incr)
		}
		if ucold.Stats() != uo.Stats() || uwarm.Stats() != uo.Stats() {
			return fail("stored build stats diverge from fresh build:\nfresh: %+v\ncold:  %+v\nwarm:  %+v",
				uo.Stats(), ucold.Stats(), uwarm.Stats())
		}
		cs, err := uwarm.RunCured(interp.Config{})
		if err != nil {
			return fail("run cured (stored): %v", err)
		}
		if err := identicalBackends("-O stored", co, cs); err != nil {
			return fail("%v", err)
		}
	}

	// Programs without an injected OOB must be trap-free, and the raw
	// execution must agree with the cured ones.
	if !oob {
		if c0.Trap != nil {
			return fail("cured trap on a correct program: %v", c0.Trap)
		}
		raw, err := u0.RunRaw(interp.PolicyNone, interp.Config{})
		if err != nil {
			return fail("run raw: %v", err)
		}
		if raw.Trap != nil {
			return fail("raw trap (generator emitted UB?): %v", raw.Trap)
		}
		if raw.Stdout != c0.Stdout {
			return fail("raw/cured stdout diverges:\nraw:   %q\ncured: %q", raw.Stdout, c0.Stdout)
		}
		if raw.ExitCode != c0.ExitCode {
			return fail("raw/cured exit code diverges: %d vs %d", raw.ExitCode, c0.ExitCode)
		}
	} else if c0.Trap == nil {
		// Every injected OOB pattern is a genuine violation; the cured
		// build must catch it.
		return fail("injected out-of-bounds access did not trap")
	}
	return nil
}

// fuzzSeeds returns how many seeds to run: GOCURED_FUZZ_SEEDS overrides,
// -short keeps the suite quick, the default meets the 5000-program budget
// of the optimizer's acceptance bar.
func fuzzSeeds(t *testing.T) uint64 {
	if env := os.Getenv("GOCURED_FUZZ_SEEDS"); env != "" {
		n, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("GOCURED_FUZZ_SEEDS: %v", err)
		}
		return n
	}
	if testing.Short() {
		return 250
	}
	return 5000
}

func TestDifferentialRandomPrograms(t *testing.T) {
	n := fuzzSeeds(t)
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	seeds := make(chan uint64, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				if err := checkSeed(seed); err != nil {
					select {
					case errs <- err:
					default: // keep only the first few failures
					}
				}
			}
		}()
	}
	for seed := uint64(1); seed <= n; seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzDifferential is the native-fuzzing entry to the same oracle: any
// uint64 becomes a generated program that must behave identically raw,
// cured -O0, and cured -O, on both the tree walker and the bytecode VM.
func FuzzDifferential(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := checkSeed(seed); err != nil {
			t.Error(err)
		}
	})
}
