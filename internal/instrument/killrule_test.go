package instrument_test

import (
	"fmt"
	"testing"

	"gocured/internal/infer"
)

// TestKillRuleMatrix pins the one kill rule both check-optimizer passes
// share: for every instruction shape, availability keeps a repeated check
// after the instruction exactly when the loop pass refuses to hoist that
// check out of a loop containing the instruction. Each shape is tried
// against a check on a plain local pointer (killed only by a write to that
// variable) and one on a global pointer (killed by any write to memory).
// The lowerer routes every call result through a plain-local temporary, so
// the two result-carrying call shapes also exercise the Set that follows.
func TestKillRuleMatrix(t *testing.T) {
	const decls = `
struct S { int f; };
int *gp;
void g(void) {}
int *mk(void) { return gp; }
int h(void) { return 1; }
int f(int *q, int *r, int *p, int k, int n) {
    struct S s;
    int a[4];
    int i = 0;
    int t = 0;
    %s
    return t;
}
`
	shapes := []struct {
		name, instr string
		// killsLocal and killsGlobal are the expected verdicts for the
		// check on q and the check on gp.
		killsLocal, killsGlobal bool
	}{
		{"set plain local", "q = r", true, false},
		{"set field of local", "s.f = 1", false, true},
		{"set index of local", "a[k] = 1", false, true},
		{"set through pointer", "*p = 1", false, true},
		{"call without result", "g()", false, true},
		{"call with local result", "q = mk()", true, true},
		{"call with pointer result", "*p = h()", false, true},
	}
	for _, sh := range shapes {
		for _, c := range []struct {
			ptr    string
			killed bool
		}{{"q", sh.killsLocal}, {"gp", sh.killsGlobal}} {
			label := fmt.Sprintf("%s / check *%s", sh.name, c.ptr)
			avail := fmt.Sprintf("t = *%[1]s; %[2]s; t = t + *%[1]s;", c.ptr, sh.instr)
			loop := fmt.Sprintf("while (i < n) { t = t + *%s; %s; i = i + 1; }", c.ptr, sh.instr)
			ua := build(t, fmt.Sprintf(decls, avail), infer.Options{})
			ul := build(t, fmt.Sprintf(decls, loop), infer.Options{})
			kept := ua.Cured.Opt.PerFunc["f"].Eliminated == 0
			refused := ul.Cured.Opt.PerFunc["f"].Hoisted == 0
			if kept != refused {
				t.Errorf("%s: availability keeps the repeat = %v, loop pass refuses to hoist = %v", label, kept, refused)
			}
			if kept != c.killed {
				t.Errorf("%s: check killed = %v, want %v", label, kept, c.killed)
			}
		}
	}
}
