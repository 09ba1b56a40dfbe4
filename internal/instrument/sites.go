package instrument

import (
	"gocured/internal/cil"
)

// SiteInfo is one static check site: a rendered source position × check
// kind. Elided counts the site's checks the optimizer deleted, so run-time
// reporting stays truthful about what curing inserted there.
type SiteInfo struct {
	Pos    string
	Kind   cil.CheckKind
	Elided int
}

// AssignSites is the one place that decides what a check site is. It walks
// the cured program after optimization and gives every check instruction a
// dense 1-based site ID, deduplicated by position × kind; then it
// attributes each check the optimizer deleted to its site, appending the
// sites whose checks were all deleted after the surviving ones. The table
// lets the interpreter count and the flight recorder log by integer ID, and
// lets exporters resolve IDs back to sources. core.Build calls this as the
// last curing stage.
func AssignSites(c *Cured) {
	type key struct {
		pos  string
		kind cil.CheckKind
	}
	idx := make(map[key]int32)
	c.Sites = c.Sites[:0]
	site := func(chk *cil.Check) int32 {
		k := key{chk.Pos.String(), chk.Kind}
		id, seen := idx[k]
		if !seen {
			c.Sites = append(c.Sites, SiteInfo{Pos: k.pos, Kind: k.kind})
			id = int32(len(c.Sites))
			idx[k] = id
		}
		return id
	}
	for _, f := range c.Prog.Funcs {
		cil.WalkInstrs(f.Body.Stmts, func(i cil.Instr) {
			if chk, ok := i.(*cil.Check); ok {
				chk.Site = site(chk)
			}
		})
	}
	for _, chk := range c.elided {
		c.Sites[site(chk)-1].Elided++
	}
}
