package instrument_test

import (
	"testing"

	"gocured/internal/cil"
	"gocured/internal/corpus"
	"gocured/internal/infer"
)

// TestAssignSitesTable pins the shape of the check-site table over the
// corpus: surviving checks number their sites 1, 2, 3, ... in program
// order, so their IDs do not depend on what the optimizer deleted; every
// site after them exists only because its checks were all deleted; each
// position × kind appears once; and every deleted check is counted at
// exactly one site.
func TestAssignSitesTable(t *testing.T) {
	for _, p := range corpus.All() {
		for _, noOpt := range []bool{true, false} {
			u := build(t, p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts, NoOptimize: noOpt})
			c := u.Cured
			live := int32(0)
			for _, f := range c.Prog.Funcs {
				cil.WalkInstrs(f.Body.Stmts, func(i cil.Instr) {
					chk, ok := i.(*cil.Check)
					if !ok {
						return
					}
					switch {
					case chk.Site == live+1:
						live++
					case chk.Site < 1 || chk.Site > live:
						t.Fatalf("%s: check at %s has site %d after %d live sites", p.Name, chk.Pos, chk.Site, live)
					}
					if s := c.Sites[chk.Site-1]; s.Pos != chk.Pos.String() || s.Kind != chk.Kind {
						t.Fatalf("%s: check %s %s has site %d = %s %s", p.Name, chk.Pos, chk.Kind, chk.Site, s.Pos, s.Kind)
					}
				})
			}
			type key struct {
				pos  string
				kind cil.CheckKind
			}
			seen := map[key]bool{}
			elided := 0
			for id, s := range c.Sites {
				k := key{s.Pos, s.Kind}
				if seen[k] {
					t.Fatalf("%s: site %s %s listed twice", p.Name, s.Pos, s.Kind)
				}
				seen[k] = true
				if int32(id) >= live && s.Elided == 0 {
					t.Errorf("%s: site %d (%s %s) has no check and nothing elided", p.Name, id+1, s.Pos, s.Kind)
				}
				elided += s.Elided
			}
			removed := 0
			if c.Opt != nil {
				removed = c.Opt.Removed()
			}
			if elided != removed {
				t.Errorf("%s (NoOptimize=%v): sites count %d elided checks, optimizer removed %d", p.Name, noOpt, elided, removed)
			}
		}
	}
}
