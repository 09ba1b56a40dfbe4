package interp_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"gocured/internal/cil"
	"gocured/internal/flight"
	"gocured/internal/interp"
)

// TestTopSitesTieOrder pins the hot-site ordering: hits descending, then
// source position compared numerically (t.c:9 before t.c:10 — lexical order
// would reverse them), then check kind. The order the sites are listed in
// must never leak into the report.
func TestTopSitesTieOrder(t *testing.T) {
	sites := []interp.SiteStat{
		{Pos: "t.c:10:1", Kind: cil.CheckNull, Hits: 7},
		{Pos: "t.c:9:1", Kind: cil.CheckNull, Hits: 7},
		{Pos: "t.c:2:5", Kind: cil.CheckSeq, Hits: 7},
		{Pos: "t.c:2:5", Kind: cil.CheckNull, Hits: 7},
		{Pos: "a.c:99:1", Kind: cil.CheckWild, Hits: 9},
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 50; i++ { // a different input order each iteration
		rng.Shuffle(len(sites), func(a, b int) { sites[a], sites[b] = sites[b], sites[a] })
		c := interp.Counters{Sites: slices.Clone(sites)}
		got := c.TopSites(0)
		if !slices.Equal(c.Sites, sites) {
			t.Fatal("TopSites reordered Counters.Sites in place")
		}
		want := []struct {
			pos  string
			kind cil.CheckKind
		}{
			{"a.c:99:1", cil.CheckWild}, // most hits first
			{"t.c:2:5", cil.CheckNull},  // then position, numerically
			{"t.c:2:5", cil.CheckSeq},   // then kind
			{"t.c:9:1", cil.CheckNull},
			{"t.c:10:1", cil.CheckNull},
		}
		if len(got) != len(want) {
			t.Fatalf("len = %d, want %d", len(got), len(want))
		}
		for j, w := range want {
			if got[j].Pos != w.pos || got[j].Kind != w.kind {
				t.Fatalf("iteration %d: site %d = %s %s, want %s %s",
					i, j, got[j].Pos, got[j].Kind, w.pos, w.kind)
			}
		}
	}
}

// TestFlightRecorderCapturesCuredRun wires a ring into a cured execution
// and checks that the event stream carries the run: checks with resolvable
// sites, balanced call/return pairs, and allocation/free events.
func TestFlightRecorderCapturesCuredRun(t *testing.T) {
	u := build(t, `
int printf(char *fmt, ...);
void *malloc(unsigned int n);
void free(void *p);
int sum(int *p, int n) {
    int i, t = 0;
    for (i = 0; i < n; i++) t += p[i];
    return t;
}
int main(void) {
    int *p = (int*)malloc(4 * 8);
    int i;
    for (i = 0; i < 8; i++) p[i] = i;
    printf("%d\n", sum(p, 8));
    free(p);
    return 0;
}
`)
	ring := flight.NewRing(4096, "interp")
	out, err := u.RunCured(interp.Config{Flight: ring})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trap != nil {
		t.Fatalf("unexpected trap: %v", out.Trap)
	}
	if out.Flight != ring {
		t.Fatal("Outcome.Flight not set")
	}
	if len(ring.Sites()) == 0 {
		t.Fatal("site table not attached to the ring")
	}
	var checks, allocs, frees int
	depth := 0
	var lastTS uint64
	for _, e := range ring.Events() {
		if e.TS < lastTS {
			t.Fatalf("timestamps regress: %d after %d", e.TS, lastTS)
		}
		lastTS = e.TS
		switch e.Kind {
		case flight.EvCheck:
			checks++
			if e.Site <= 0 || int(e.Site) > len(ring.Sites()) {
				t.Fatalf("check event with unresolvable site %d", e.Site)
			}
		case flight.EvAlloc:
			allocs++
		case flight.EvFree:
			frees++
		case flight.EvCall:
			depth++
		case flight.EvRet:
			depth--
		}
	}
	if checks == 0 {
		t.Error("no check events recorded")
	}
	if allocs == 0 || frees == 0 {
		t.Errorf("allocs = %d, frees = %d, want both > 0", allocs, frees)
	}
	if depth != 0 {
		t.Errorf("call/return depth = %d at end of run, want 0", depth)
	}
	if uint64(checks)+ring.Dropped() < out.Counters.Checks {
		t.Errorf("ring saw %d checks (+%d dropped) but the run executed %d",
			checks, ring.Dropped(), out.Counters.Checks)
	}
}

// TestFlightBlackBoxOnTrap checks the crash snapshot: a trapped cured run
// attaches the last ring window ending at the trap event, with the stack.
func TestFlightBlackBoxOnTrap(t *testing.T) {
	u := build(t, `
char buf[8];
void fill(char *p, int n) {
    int i;
    for (i = 0; i <= n; i++) p[i] = 'A';   /* off-by-one */
}
int main(void) {
    fill(buf, 8);
    return 0;
}
`)
	ring := flight.NewRing(1024, "interp")
	out, err := u.RunCured(interp.Config{Flight: ring})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trap == nil {
		t.Fatal("overflow did not trap")
	}
	bb := out.BlackBox
	if bb == nil {
		t.Fatal("no black box attached to the trapped outcome")
	}
	if bb.TrapKind != out.Trap.Kind || bb.TrapPos != out.Trap.Pos {
		t.Errorf("black box trap %s@%s, outcome trap %s@%s",
			bb.TrapKind, bb.TrapPos, out.Trap.Kind, out.Trap.Pos)
	}
	if len(bb.Events) < 2 {
		t.Fatalf("black box has %d events, want the pre-trap window", len(bb.Events))
	}
	if len(bb.Stack) == 0 {
		t.Error("black box is missing the call stack")
	}
}

// TestProfileSampling drives the step sampler through a hot loop and
// expects the loop line to dominate the profile.
func TestProfileSampling(t *testing.T) {
	u := build(t, `
int main(void) {
    int i, t = 0;
    for (i = 0; i < 20000; i++) t += i;
    return t > 0 ? 0 : 1;
}
`)
	prof := flight.NewProfile(64)
	out, err := u.RunCured(interp.Config{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trap != nil {
		t.Fatalf("unexpected trap: %v", out.Trap)
	}
	if prof.Total() == 0 {
		t.Fatal("no samples taken")
	}
	top := prof.Top(3)
	if len(top) == 0 {
		t.Fatal("empty profile")
	}
	if top[0].Samples == 0 || top[0].Pct <= 0 {
		t.Errorf("top line %+v has no weight", top[0])
	}
}
