package infer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gocured/internal/cil"
	"gocured/internal/corpus"
	"gocured/internal/cparse"
	"gocured/internal/diag"
	"gocured/internal/sema"
)

// memSource is an in-memory SummarySource for tests.
type memSource struct {
	m     map[string]*FuncSummary
	loads int
	saves int
}

func newMemSource() *memSource { return &memSource{m: make(map[string]*FuncSummary)} }

func memKey(fn string, body, decls [sha256.Size]byte) string {
	return fn + ":" + hex.EncodeToString(body[:]) + ":" + hex.EncodeToString(decls[:])
}

func (s *memSource) Load(fn string, body, decls [sha256.Size]byte) (*FuncSummary, bool) {
	sum, ok := s.m[memKey(fn, body, decls)]
	if ok {
		s.loads++
	}
	return sum, ok
}

func (s *memSource) Save(sum *FuncSummary, fn string, body, decls [sha256.Size]byte) {
	s.saves++
	s.m[memKey(fn, body, decls)] = sum
}

// lower runs the frontend on src, failing the test on errors.
func lower(t testing.TB, name, src string) (*cil.Program, *diag.List) {
	t.Helper()
	var d diag.List
	file := cparse.Parse(name, src, &d)
	unit := sema.Check(file, &d)
	prog := cil.Lower(unit, &d)
	if d.HasErrors() {
		t.Fatalf("%s: frontend errors:\n%v", name, d.Err())
	}
	return prog, &d
}

// resultSig renders a whole-Result signature strong enough to detect any
// divergence between a fresh whole-program solve and a summary-composed
// one: node creation order with types and solved kinds, every cast site's
// classification, the solved stats, and the split stats.
func resultSig(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats=%+v\nsplit=%+v\n", res.ComputeStats(), res.Split.Stats)
	for _, n := range res.Graph.Nodes {
		fmt.Fprintf(&b, "n%d %s k=%s f=%v%v%v%v\n", n.ID, n.Ty, n.Find().Kind,
			n.Find().Arith, n.Find().BadCast, n.Find().IntCast, n.Find().RttiNeed)
	}
	for _, c := range res.Casts {
		fmt.Fprintf(&b, "cast %s:%d:%d %s tile=%v tr=%v ww=%v %s -> %s\n",
			c.Pos.File, c.Pos.Line, c.Pos.Col, c.Class, c.TileOK, c.Trusted, c.WentWild, c.From, c.To)
	}
	return b.String()
}

// goldenSources returns every C source the golden test composes over: the
// micro programs, every corpus program, and the C snippets embedded in the
// examples' Go files.
func goldenSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"micro_ptr.c": `
int g;
int *gp = &g;
int sum(int *p, int n) {
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) s = s + p[i];
  return s;
}
int main(void) {
  int a[4];
  int i;
  for (i = 0; i < 4; i++) a[i] = i;
  return sum(a, 4);
}`,
		"micro_cast.c": `
struct S { int x; int *p; };
struct T { int x; int *p; int extra; };
int main(void) {
  struct T t;
  struct S *s;
  t.x = 1; t.extra = 2; t.p = &t.x;
  s = (struct S *)&t;
  return s->x + *(s->p);
}`,
		"micro_wild.c": `
int main(void) {
  int x; char *c;
  x = 5;
  c = (char *)&x;
  return c[0];
}`,
	}
	for _, p := range corpus.All() {
		srcs["corpus_"+p.Name+".c"] = p.Source
	}
	// Extract C snippets embedded as Go raw strings in examples/.
	re := regexp.MustCompile("(?s)`([^`]*)`")
	matches, _ := filepath.Glob("../../examples/*/main.go")
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		for i, m := range re.FindAllStringSubmatch(string(data), -1) {
			snippet := m[1]
			if !strings.Contains(snippet, "int") || !strings.Contains(snippet, "(") {
				continue
			}
			var d diag.List
			file := cparse.Parse("snippet.c", snippet, &d)
			unit := sema.Check(file, &d)
			cil.Lower(unit, &d)
			if d.HasErrors() {
				continue // not a compilable C snippet (usage text etc.)
			}
			srcs[fmt.Sprintf("example_%s_%d.c", filepath.Base(filepath.Dir(path)), i)] = snippet
		}
	}
	return srcs
}

// TestSummaryGolden asserts the tentpole invariant: per-function summaries
// recorded from one parse and replayed against a fresh parse compose to a
// bit-identical inference Result (same node IDs, kinds, casts, stats) as
// the whole-program solve.
func TestSummaryGolden(t *testing.T) {
	for name, src := range goldenSources(t) {
		for _, opts := range []Options{{}, {TrustBadCasts: true}, {NoRTTI: true}, {SplitAll: true}} {
			label := fmt.Sprintf("%s/%+v", name, opts)

			progA, dA := lower(t, name, src)
			want := resultSig(Infer(progA, opts, dA))

			mem := newMemSource()
			progB, dB := lower(t, name, src)
			resB, stB := InferIncremental(progB, opts, dB, mem)
			if got := resultSig(resB); got != want {
				t.Fatalf("%s: recording pass diverged from whole-program solve:\n--- want\n%s\n--- got\n%s", label, want, got)
			}
			if stB.Recured != stB.Funcs || stB.Loaded != 0 {
				t.Fatalf("%s: cold pass stats %+v, want all recured", label, stB)
			}

			progC, dC := lower(t, name, src)
			resC, stC := InferIncremental(progC, opts, dC, mem)
			if got := resultSig(resC); got != want {
				t.Fatalf("%s: replay pass diverged from whole-program solve:\n--- want\n%s\n--- got\n%s", label, want, got)
			}
			if stC.Loaded != stC.Funcs-stC.Unstorable || stC.Recured != stC.Unstorable {
				t.Fatalf("%s: warm pass stats %+v, want everything storable loaded", label, stC)
			}
			if stC.Unstorable > 0 {
				t.Logf("%s: %d/%d functions unstorable", label, stC.Unstorable, stC.Funcs)
			}
		}
	}
}

// TestSummaryOneLineEdit asserts the incrementality payoff: editing one
// function body re-cures only that function, and the edited unit's result
// still matches its whole-program solve.
func TestSummaryOneLineEdit(t *testing.T) {
	for _, p := range corpus.All() {
		if !strings.Contains(p.Source, "int i;") {
			continue
		}
		opts := Options{TrustBadCasts: p.TrustBadCasts}
		mem := newMemSource()
		progA, dA := lower(t, p.Name, p.Source)
		InferIncremental(progA, opts, dA, mem)

		edited := strings.Replace(p.Source, "int i;", "int i; if (0) { i = 1; }", 1)
		progB, dB := lower(t, p.Name, edited)
		resB, stB := InferIncremental(progB, opts, dB, mem)

		progC, dC := lower(t, p.Name, edited)
		want := resultSig(Infer(progC, opts, dC))
		if got := resultSig(resB); got != want {
			t.Fatalf("%s: edited incremental result diverged from whole-program solve", p.Name)
		}
		maxRecure := 1 + stB.Unstorable
		if stB.Recured > maxRecure {
			t.Errorf("%s: one-line edit re-cured %d of %d functions (want <= %d)",
				p.Name, stB.Recured, stB.Funcs, maxRecure)
		}
		if stB.Funcs >= 10 && float64(stB.Recured)/float64(stB.Funcs) >= 0.10 {
			t.Errorf("%s: one-line edit re-cured %.0f%% of functions, want < 10%%",
				p.Name, 100*float64(stB.Recured)/float64(stB.Funcs))
		}
	}
}

// keySoundBase is the program TestSummaryKeySound edits: no function body
// touches struct A's field q, or anything of struct B but its a field.
const keySoundBase = `
struct A { int *p; int n; char *q; };
struct B { struct A *a; int k; };
int get(struct A *a) { return *a->p + a->n; }
int main(void) {
  struct A x; struct B b; int v;
  v = 3; x.p = &v; x.n = 1; b.a = &x;
  return get(b.a);
}`

// TestSummaryKeySound asserts that a change outside every function body
// reaches every chunk key. Body fingerprints name a struct by its
// declaration index and do not expand its fields, so only the declaration
// fingerprint sees a field's type or annotation, or the declaration order.
func TestSummaryKeySound(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		// sameBodies: the change is invisible to every body fingerprint,
		// so the declaration fingerprint alone must catch it.
		sameBodies bool
	}{
		// `long` is `int` in this ILP32 model, so the type change is to
		// `long long`.
		{"field type", strings.Replace(keySoundBase, "int n; char *q;", "int n; long long *q;", 1), true},
		{"field annotation", strings.Replace(keySoundBase, "char *q;", "char * __SEQ q;", 1), true},
		{"declaration order", strings.Replace(keySoundBase,
			"struct A { int *p; int n; char *q; };\nstruct B { struct A *a; int k; };",
			"struct B { struct A *a; int k; };\nstruct A { int *p; int n; char *q; };", 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.src == keySoundBase {
				t.Fatal("the edit does not apply")
			}
			mem := newMemSource()
			progA, dA := lower(t, "key.c", keySoundBase)
			InferIncremental(progA, Options{}, dA, mem)

			progB, dB := lower(t, "key.c", tc.src)
			if tc.sameBodies {
				fpA, fpB := newFingerprinter(progA), newFingerprinter(progB)
				for i, f := range progB.Funcs {
					if fpA.Func(progA.Funcs[i]) != fpB.Func(f) {
						t.Fatalf("%s: the body fingerprint changed", f.Name)
					}
				}
			}
			resB, st := InferIncremental(progB, Options{}, dB, mem)
			if st.Loaded != 0 {
				t.Fatalf("stats %+v: a summary keyed before the change was replayed", st)
			}
			progC, dC := lower(t, "key.c", tc.src)
			if got, want := resultSig(resB), resultSig(Infer(progC, Options{}, dC)); got != want {
				t.Fatalf("result diverged from whole-program solve:\n--- want\n%s\n--- got\n%s", want, got)
			}
		})
	}
}
