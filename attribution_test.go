package gocured_test

// Golden attribution of run-time checks: for every corpus program at -O0
// and -O, the full Result.CheckSites table (position, kind, hits, traps,
// statically eliminated count), and for the cured ftpd exploit run the trap
// position and blame chain. Each program and level is one line — the row
// count and the SHA-256 of the rendered rows — so the file stays small
// while any change to a single row shows up as a diff.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gocured"
	"gocured/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// siteDigest renders a check-site table one row per line and hashes it.
func siteDigest(sites []gocured.CheckSiteCount) string {
	var b strings.Builder
	for _, s := range sites {
		fmt.Fprintf(&b, "%s\t%s\t%d\t%d\t%d\n", s.Pos, s.Kind, s.Hits, s.Traps, s.Eliminated)
	}
	return fmt.Sprintf("rows=%d sha256=%x", len(sites), sha256.Sum256([]byte(b.String())))
}

func TestCheckAttributionGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range corpus.All() {
		for _, level := range []struct {
			name string
			noOp bool
		}{{"-O0", true}, {"-O", false}} {
			prog, err := gocured.Compile(p.Name+".c", p.Source,
				gocured.Options{TrustBadCasts: p.TrustBadCasts, NoOptimize: level.noOp})
			if err != nil {
				t.Fatalf("%s %s: compile: %v", p.Name, level.name, err)
			}
			res, err := prog.Run(gocured.ModeCured, gocured.RunOptions{})
			if err != nil {
				t.Fatalf("%s %s: run: %v", p.Name, level.name, err)
			}
			fmt.Fprintf(&b, "%-18s %-3s %s\n", p.Name, level.name, siteDigest(res.CheckSites))
		}
	}

	p := corpus.ByName("ftpd")
	prog, err := gocured.Compile("ftpd.c", p.Source, gocured.Options{TrustBadCasts: p.TrustBadCasts})
	if err != nil {
		t.Fatalf("ftpd: compile: %v", err)
	}
	res, err := prog.Run(gocured.ModeCured, gocured.RunOptions{Stdin: []byte(corpus.FtpdExploitInput)})
	if err != nil {
		t.Fatalf("ftpd exploit: run: %v", err)
	}
	fmt.Fprintf(&b, "ftpd-exploit       -O  %s\n", siteDigest(res.CheckSites))
	fmt.Fprintf(&b, "  trap %s %s\n", res.TrapKind, res.TrapPos)
	for _, l := range res.TrapBlame {
		fmt.Fprintf(&b, "  blame %s\n", l)
	}
	checkGolden(t, "attribution.golden", b.String())
}

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
