package gocured_test

// Golden cured struct layouts: for every corpus program, at default options
// and with ForceSplitAll, the cured size, alignment and field offsets of
// every struct and union the program defines, as the layout oracle the
// interpreter runs on reports them. Each program and option set is one
// line — the struct count and the SHA-256 of the rendered layouts.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/ctypes"
)

func TestLayoutGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range corpus.All() {
		for _, split := range []bool{false, true} {
			prog, err := gocured.Compile(p.Name+".c", p.Source,
				gocured.Options{TrustBadCasts: p.TrustBadCasts, ForceSplitAll: split})
			if err != nil {
				t.Fatalf("%s split=%v: compile: %v", p.Name, split, err)
			}
			cp, lay := gocured.CuredLayout(prog)
			var l strings.Builder
			for _, su := range cp.Structs {
				st := ctypes.StructType(su)
				fmt.Fprintf(&l, "%s union=%v size=%d align=%d", su.Name, su.Union, lay.Sizeof(st), lay.Alignof(st))
				for _, f := range su.Fields {
					fmt.Fprintf(&l, " %s@%d", f.Name, lay.FieldOff(f))
				}
				l.WriteByte('\n')
			}
			opts := "default"
			if split {
				opts = "split-all"
			}
			fmt.Fprintf(&b, "%-18s %-9s structs=%d sha256=%x\n", p.Name, opts, len(cp.Structs), sha256.Sum256([]byte(l.String())))
		}
	}
	checkGolden(t, "layouts.golden", b.String())
}
