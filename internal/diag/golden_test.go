package diag_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gocured/internal/diag"
	"gocured/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestDiagnosticListGolden pins the rendered form of a sorted diagnostic
// list: position-prefixed, severity-labelled, generated positions last.
func TestDiagnosticListGolden(t *testing.T) {
	var l diag.List
	l.Warnf(diag.Pos{File: "b.c", Line: 2, Col: 4}, "cast from %s to %s is unverifiable", "int *", "struct T *")
	l.Errorf(diag.Pos{File: "a.c", Line: 9, Col: 1}, "pointer arithmetic on WILD pointer")
	l.Notef(diag.Pos{}, "5 checks inserted")
	l.Warnf(diag.Pos{File: "a.c", Line: 1, Col: 2}, "unused cure annotation")

	var b strings.Builder
	for _, d := range l.All() {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	checkGolden(t, "diagnostics.golden", b.String())
}

// TestBlameChainGolden pins the blame-chain rendering that -explain and
// trap provenance reports are built from: one header naming the target and
// its kind, one line per constraint edge with category/rule/position, and
// the forcing seed last.
func TestBlameChainGolden(t *testing.T) {
	p := trace.NewProv()
	p.Text = func(n int) string { return map[int]string{3: "int *", 7: "int *", 9: "struct T *"}[n] }
	p.AddEdge(3, 7, trace.CatFlow, "call-arg", diag.Pos{File: "w.c", Line: 4, Col: 11})
	p.AddEdge(7, 9, trace.CatUnify, "cast-identity", diag.Pos{File: "w.c", Line: 8, Col: 5})
	p.AddSeed(9, "bad-cast", diag.Pos{File: "w.c", Line: 8, Col: 16}, "struct T * incompatible with int *")

	ch := p.Explain(3, trace.GoalWild)
	if ch == nil {
		t.Fatal("no chain")
	}
	checkGolden(t, "blame.golden", ch.Render())
}
