package interp

import (
	"testing"

	"gocured/internal/cil"
)

// The per-check-hit attribution path: a check carrying a static site ID
// counts into the dense table by index — no map hash, no position-string
// formatting, no allocation.

func TestSiteForHitPathDoesNotAllocate(t *testing.T) {
	m := &Machine{siteCounts: make([]SiteCount, 4)}
	chk := &cil.Check{Kind: cil.CheckSeq, Site: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		m.siteFor(chk).Hits++
	})
	if allocs != 0 {
		t.Fatalf("siteFor allocated %.1f times per check hit, want 0", allocs)
	}
}

func BenchmarkSiteCount(b *testing.B) {
	m := &Machine{siteCounts: make([]SiteCount, 8)}
	chk := &cil.Check{Kind: cil.CheckNull, Site: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.siteFor(chk).Hits++
	}
	if m.siteCounts[3].Hits != uint64(b.N) {
		b.Fatal("hits were not attributed to the site's dense slot")
	}
}
