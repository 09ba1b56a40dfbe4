package instrument_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gocured/internal/core"
	"gocured/internal/infer"
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

// exampleSource loads one example program's C source: either a .c file on
// disk or the backquoted `const src` literal embedded in an example's
// main.go.
func exampleSource(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(path, ".c") {
		return string(data)
	}
	s := string(data)
	i := strings.Index(s, "const src = `")
	if i < 0 {
		t.Fatalf("%s: no embedded `const src` literal", path)
	}
	s = s[i+len("const src = `"):]
	j := strings.Index(s, "`")
	if j < 0 {
		t.Fatalf("%s: unterminated source literal", path)
	}
	return s[:j]
}

// TestOptimizerStatsGolden pins the optimizer's per-example statistics —
// checks inserted by curing vs eliminated / coalesced / hoisted / widened
// by the optimizer — over the shipped example programs. A change to the
// optimizer that silently regresses (or inflates) its effect shows up as a
// golden diff.
func TestOptimizerStatsGolden(t *testing.T) {
	examples := []struct {
		name, path string
	}{
		{"quickstart", "../../examples/quickstart/main.go"},
		{"oop", "../../examples/oop/main.go"},
		{"explain", "../../examples/explain/wild.c"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s  %8s  %4s  %4s  %5s  %5s  %6s\n",
		"example", "inserted", "elim", "coal", "hoist", "widen", "remain")
	for _, ex := range examples {
		src := exampleSource(t, ex.path)
		u, err := core.Build(ex.name+".c", src, infer.Options{})
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		inserted := 0
		for _, n := range u.Cured.ChecksInserted {
			inserted += n
		}
		o := u.Cured.Opt
		fmt.Fprintf(&b, "%-10s  %8d  %4d  %4d  %5d  %5d  %6d\n",
			ex.name, inserted, o.Eliminated, o.Coalesced, o.Hoisted, o.Widened,
			inserted-o.Eliminated-o.Coalesced)
		// Per-function detail, sorted by name, for functions the optimizer
		// touched.
		var names []string
		for name, fo := range o.PerFunc {
			if fo.Eliminated+fo.Coalesced+fo.Hoisted+fo.Widened > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fo := o.PerFunc[name]
			fmt.Fprintf(&b, "  %-20s  before %3d  after %3d  elim %2d  coal %2d  hoist %2d  widen %2d  blocks %2d\n",
				name, fo.Before, fo.After, fo.Eliminated, fo.Coalesced, fo.Hoisted, fo.Widened,
				fo.Blocks)
		}
	}
	checkGolden(t, "optstats.golden", b.String())
}
