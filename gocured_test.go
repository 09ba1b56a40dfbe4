package gocured_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gocured"
	"gocured/internal/corpus"
)

const apiDemo = `
extern int printf(char *fmt, ...);
extern void *malloc(unsigned int n);

struct Point { int x; int y; };

int manhattan(struct Point *p) { return p->x + p->y; }

int main(void) {
    struct Point *p = (struct Point *)malloc(sizeof(struct Point));
    int i, total = 0;
    int arr[5];
    p->x = 3;
    p->y = 4;
    for (i = 0; i < 5; i++) arr[i] = i * i;
    for (i = 0; i < 5; i++) total += arr[i];
    printf("dist=%d sum=%d\n", manhattan(p), total);
    return 0;
}
`

func TestCompileAndRunModes(t *testing.T) {
	prog, err := gocured.Compile("demo.c", apiDemo, gocured.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "dist=7 sum=30\n"
	for _, mode := range []gocured.Mode{gocured.ModeRaw, gocured.ModeCured,
		gocured.ModePurify, gocured.ModeValgrind} {
		res, err := prog.Run(mode, gocured.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Trapped {
			t.Fatalf("%s trapped: %s", mode, res.TrapMessage)
		}
		if res.Stdout != want {
			t.Errorf("%s stdout = %q, want %q", mode, res.Stdout, want)
		}
	}
}

// TestConcurrentRuns is the -race regression for the documented guarantee
// that one compiled Program may be Run from many goroutines: 8 goroutines
// share a single Program, cycling through every execution mode (plus Stats
// and Diagnostics reads), and every run must produce the sequential result.
// Under the race detector this exercises the write-free qualifier-graph
// and cured-layout reads and the RTTI-hierarchy synchronization.
func TestConcurrentRuns(t *testing.T) {
	prog, err := gocured.Compile("demo.c", apiDemo, gocured.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "dist=7 sum=30\n"
	const goroutines = 8
	const runsEach = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runsEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runsEach; i++ {
				mode := gocured.Modes()[(g+i)%len(gocured.Modes())]
				res, err := prog.Run(mode, gocured.RunOptions{})
				if err != nil {
					errs <- err
					continue
				}
				if res.Trapped {
					errs <- fmt.Errorf("%s trapped: %s", mode, res.TrapMessage)
					continue
				}
				if res.Stdout != want {
					errs <- fmt.Errorf("%s stdout = %q, want %q", mode, res.Stdout, want)
				}
				if s := prog.Stats(); s.Pointers == 0 {
					errs <- fmt.Errorf("concurrent Stats lost pointers")
				}
				_ = prog.Diagnostics()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestStatsSurface(t *testing.T) {
	prog, err := gocured.Compile("demo.c", apiDemo, gocured.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Stats()
	if s.Pointers == 0 {
		t.Error("no pointers counted")
	}
	if s.Lines == 0 {
		t.Error("no lines counted")
	}
	sum := s.PctSafe + s.PctSeq + s.PctWild + s.PctRtti
	if sum < 99.0 || sum > 101.0 {
		t.Errorf("kind percentages sum to %.1f, want ~100", sum)
	}
	if s.ChecksInserted == 0 {
		t.Error("curing inserted no checks")
	}
}

func TestCuredCatchesWhatRawMisses(t *testing.T) {
	src := `
int main(void) {
    int a[3];
    int i, t = 0;
    for (i = 0; i <= 3; i++) t += a[i];
    return t;
}
`
	prog, err := gocured.Compile("bug.c", src, gocured.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := prog.Run(gocured.ModeRaw, gocured.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Trapped {
		t.Fatalf("raw run should not trap: %s", raw.TrapMessage)
	}
	cured, err := prog.Run(gocured.ModeCured, gocured.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cured.Trapped || cured.TrapKind != "bounds" {
		t.Fatalf("cured run must trap bounds, got trapped=%v kind=%s",
			cured.Trapped, cured.TrapKind)
	}
}

func TestOptionsChangeInference(t *testing.T) {
	src := `
struct Base { int (*fn)(struct Base*); };
struct Derived { int (*fn)(struct Base*); int extra; };
int handler(struct Base *b) {
    struct Derived *d = (struct Derived*)b;
    return d->extra;
}
`
	withRTTI, err := gocured.Compile("p.c", src, gocured.Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := gocured.Compile("p.c", src, gocured.Options{NoRTTI: true})
	if err != nil {
		t.Fatal(err)
	}
	if withRTTI.Stats().BadCasts != 0 {
		t.Error("RTTI should verify the downcast")
	}
	if without.Stats().BadCasts == 0 {
		t.Error("NoRTTI should classify the downcast as bad")
	}
	if without.Stats().PctWild == 0 {
		t.Error("NoRTTI should produce WILD pointers")
	}
	trusted, err := gocured.Compile("p.c", src, gocured.Options{NoRTTI: true, TrustBadCasts: true})
	if err != nil {
		t.Fatal(err)
	}
	if trusted.Stats().PctWild != 0 {
		t.Error("TrustBadCasts should eliminate WILD")
	}
	if trusted.Stats().Trusted == 0 {
		t.Error("TrustBadCasts should record trusted casts")
	}
}

func TestDumpOutput(t *testing.T) {
	prog, err := gocured.Compile("demo.c", apiDemo, gocured.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var raw, cured strings.Builder
	prog.DumpRaw(&raw)
	prog.DumpCured(&cured)
	if !strings.Contains(raw.String(), "func main") {
		t.Error("raw dump missing main")
	}
	if !strings.Contains(cured.String(), "__check_") {
		t.Error("cured dump missing check instructions")
	}
	if len(cured.String()) <= len(raw.String()) {
		t.Error("cured program should be longer than raw (inserted checks)")
	}
}

func TestStdinReachesProgram(t *testing.T) {
	src := `
extern int getchar(void);
extern int putchar(int c);
int main(void) {
    int c;
    while ((c = getchar()) >= 0) {
        if (c >= 'a' && c <= 'z') c = c - 'a' + 'A';
        putchar(c);
    }
    return 0;
}
`
	prog, err := gocured.Compile("upper.c", src, gocured.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(gocured.ModeCured, gocured.RunOptions{Stdin: []byte("hello, CCured!\n")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "HELLO, CCURED!\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := gocured.Compile("bad.c", "int main(void) { return x; }", gocured.Options{}); err == nil {
		t.Error("undeclared identifier must fail compilation")
	}
	if _, err := gocured.Compile("bad2.c", "int f( { }", gocured.Options{}); err == nil {
		t.Error("syntax error must fail compilation")
	}
}

func TestCountLines(t *testing.T) {
	if n := gocured.CountLines("a\n\nb\n  \nc"); n != 3 {
		t.Errorf("CountLines = %d, want 3", n)
	}
}

func TestModeString(t *testing.T) {
	if gocured.ModeRaw.String() != "raw" || gocured.ModeCured.String() != "cured" {
		t.Error("mode names wrong")
	}
}

// TestHottestCheckSite pins the per-site check attribution on a corpus
// program: cured olden-treeadd spends most of its checks on the null test
// guarding the recursive child-pointer walk, and the counters must come
// back sorted hottest-first.
func TestHottestCheckSite(t *testing.T) {
	p := corpus.ByName("olden-treeadd")
	if p == nil {
		t.Fatal("corpus program olden-treeadd missing")
	}
	prog, err := gocured.Compile(p.Name+".c", p.Source, gocured.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(gocured.ModeCured, gocured.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trapped {
		t.Fatalf("treeadd trapped: %s", res.TrapKind)
	}
	if len(res.CheckSites) == 0 {
		t.Fatal("no per-site check counters recorded")
	}
	for i := 1; i < len(res.CheckSites); i++ {
		if res.CheckSites[i].Hits > res.CheckSites[i-1].Hits {
			t.Fatalf("CheckSites not sorted by hits: %v before %v",
				res.CheckSites[i-1], res.CheckSites[i])
		}
	}
	hot := res.CheckSites[0]
	if hot.Pos != "olden-treeadd.c:55:28" || hot.Kind != "null" {
		t.Errorf("hottest site = %s %s (%d hits), want the null check at olden-treeadd.c:55:28",
			hot.Pos, hot.Kind, hot.Hits)
	}
	if hot.Traps != 0 {
		t.Errorf("treeadd must not trap, yet hottest site has %d traps", hot.Traps)
	}
	// TopCheckSites(n) truncates without re-sorting.
	top := res.TopCheckSites(3)
	if len(top) != 3 || top[0] != hot {
		t.Errorf("TopCheckSites(3) = %v, want prefix starting at %v", top, hot)
	}
}
