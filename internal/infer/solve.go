package infer

import (
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/qual"
)

// solve runs the kind fixpoint:
//
//  1. WILD spreads from bad casts along every flow edge (both directions)
//     and into pointee representations (the soundness conditions of §2.1).
//  2. SEQ is required by pointer arithmetic and disguised integers, and
//     propagates against the data flow (bounds originate at allocation).
//  3. RTTI is required at checked downcast sources and propagates against
//     the data flow through physically-equal assignments unconditionally
//     and through upcasts only when the source type has subtypes (§3.2).
//  4. A re-check pass demotes to WILD the upcasts whose SEQ tiling fails
//     and the downcasts that ended up on SEQ pointers; the fixpoint
//     repeats until stable (kinds only escalate, so it terminates).
//
// Everything still Unknown at the end is SAFE.
//
// Solving creates no nodes and unions no classes, so the representative
// list and the RTTI step's edge index are computed once and shared by
// every round.
func (in *inferrer) solve() {
	reps := in.g.Reps()
	var byDst [][]*edge
	if !in.opts.NoRTTI {
		byDst = in.edgesByDst()
	}
	for iter := 0; iter < 64; iter++ {
		in.propagateWild(reps)
		in.propagateSeq(reps)
		if !in.opts.NoRTTI {
			in.propagateRtti(reps, byDst)
		}
		if !in.recheck(reps) {
			break
		}
	}
	in.finalize(reps)
}

// reach returns, in marking order, every class reachable from the reps
// that seed accepts, stepping from a marked class to the nodes next
// passes to push and never entering a class that stop rejects.
func (in *inferrer) reach(reps []*qual.Node, seed, stop func(*qual.Node) bool, next func(n *qual.Node, push func(*qual.Node))) []*qual.Node {
	seen := make([]bool, len(in.g.Nodes)+1) // by node ID
	var work, marked []*qual.Node
	push := func(n *qual.Node) {
		if n == nil {
			return
		}
		if r := n.Find(); !seen[r.ID] && !stop(r) {
			seen[r.ID] = true
			work = append(work, r)
			marked = append(marked, r)
		}
	}
	for _, r := range reps {
		if seed(r) {
			push(r)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		next(n, push)
	}
	return marked
}

// propagateWild spreads WILD over every edge, from the classes that turn
// WILD now: bad casts and WILD annotations.
func (in *inferrer) propagateWild(reps []*qual.Node) {
	seed := func(r *qual.Node) bool { return r.BadCast || r.Forced == qual.Wild }
	stop := func(r *qual.Node) bool { return r.Kind == qual.Wild }
	for _, r := range in.reach(reps, seed, stop, func(n *qual.Node, push func(*qual.Node)) {
		for _, m := range n.FlowsOut() {
			push(m)
		}
		for _, m := range n.FlowsIn() {
			push(m)
		}
		for _, m := range n.BaseNodes() {
			push(m)
		}
	}) {
		r.Kind = qual.Wild
	}
}

// propagateIntCast spreads the "disguised integer" fact forward along data
// flow: a pointer that may hold a null-base disguised integer needs the
// multi-word representation everywhere the value travels (converting it to
// SAFE would trap even when the program never dereferences it).
func (in *inferrer) propagateIntCast(reps []*qual.Node) {
	var work []*qual.Node
	for _, r := range reps {
		if r.IntCast {
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, m := range n.FlowsOut() {
			r := m.Find()
			if !r.IntCast {
				r.IntCast = true
				// Seed the blame index too: SEQ chains walk with the data
				// flow, so a downstream node infected here needs its own
				// seed to be explainable.
				in.g.Prov.AddSeed(r.ID, "int-cast-flow", diag.Pos{}, "receives a disguised integer via data flow")
				work = append(work, r)
			}
		}
	}
}

// propagateSeq makes SEQ every class that needs bounds (arithmetic,
// disguised integers, SEQ annotations) and, against the data flow, every
// non-WILD class flowing into one: if the destination needs bounds, the
// source must carry them.
func (in *inferrer) propagateSeq(reps []*qual.Node) {
	in.propagateIntCast(reps)
	seed := func(r *qual.Node) bool { return r.Arith || r.IntCast || r.Forced == qual.Seq }
	stop := func(r *qual.Node) bool { return r.Kind == qual.Wild }
	for _, r := range in.reach(reps, seed, stop, func(n *qual.Node, push func(*qual.Node)) {
		for _, m := range n.FlowsIn() {
			push(m)
		}
	}) {
		r.Kind = qual.Seq
	}
}

// edgesByDst indexes the flow edges by destination class ID, for the
// RTTI step's backward propagation.
func (in *inferrer) edgesByDst() [][]*edge {
	byDst := make([][]*edge, len(in.g.Nodes)+1)
	for _, e := range in.edges {
		if e.src != nil && e.dst != nil {
			r := e.dst.Find().ID
			byDst[r] = append(byDst[r], e)
		}
	}
	return byDst
}

// propagateRtti makes RTTI the sources of checked downcasts and RTTI
// annotations, and, against the data flow, the non-WILD, non-SEQ classes
// flowing into one through a physically-equal assignment, or through an
// upcast whose source type has subtypes in the program (otherwise its
// static type is exact and SAFE suffices).
func (in *inferrer) propagateRtti(reps []*qual.Node, byDst [][]*edge) {
	seed := func(r *qual.Node) bool { return r.RttiNeed || r.Forced == qual.Rtti }
	stop := func(r *qual.Node) bool { return r.Kind == qual.Wild || r.Kind == qual.Seq }
	for _, r := range in.reach(reps, seed, stop, func(n *qual.Node, push func(*qual.Node)) {
		for _, e := range byDst[n.ID] {
			src := e.src.Find()
			switch e.class {
			case edgeAssign:
				push(src)
			case edgeUpcast:
				if src.Ty != nil && src.Ty.Elem != nil && in.hier.HasStrictSubtypes(in.hier.Of(src.Ty.Elem), &in.match) {
					push(src)
				}
			}
		}
	}) {
		r.Kind = qual.Rtti
	}
}

// recheck demotes invalid combinations to WILD; reports whether anything
// changed (requiring another fixpoint round).
func (in *inferrer) recheck(reps []*qual.Node) bool {
	changed := false
	demote := func(n *qual.Node, site *CastSite) {
		r := n.Find()
		if !r.BadCast {
			r.MarkBad(site.Pos, "cast invalid at inferred kinds")
			changed = true
		}
		if !site.WentWild {
			site.WentWild = true
			site.Class = CastBad
		}
	}
	kindOf := func(n *qual.Node) qual.Kind {
		if n == nil {
			return qual.Safe
		}
		return n.Find().Kind
	}
	for _, e := range in.edges {
		if e.site == nil || e.site.Trusted {
			continue
		}
		switch e.class {
		case edgeUpcast:
			// A SEQ upcast is only sound when the tiling rule holds.
			if (kindOf(e.src) == qual.Seq || kindOf(e.dst) == qual.Seq) && !e.site.TileOK {
				demote(e.src, e.site)
				demote(e.dst, e.site)
			}
		case edgeDowncast:
			// Checked downcasts are defined for RTTI sources and SAFE or
			// RTTI destinations; SEQ on either side is unsupported.
			if kindOf(e.src) == qual.Seq || kindOf(e.dst) == qual.Seq {
				demote(e.src, e.site)
				demote(e.dst, e.site)
			}
		}
	}
	// A node that needs both RTTI and SEQ has no representation: WILD.
	for _, r := range reps {
		if r.Kind == qual.Seq && r.RttiNeed && !r.BadCast {
			r.MarkBad(r.WhyPos, "needs both RTTI and SEQ")
			changed = true
		}
	}
	return changed
}

// finalize assigns SAFE to everything still unknown and validates user
// annotations.
func (in *inferrer) finalize(reps []*qual.Node) {
	for _, r := range reps {
		if r.Kind == qual.Unknown {
			r.Kind = qual.Safe
		}
		if r.Forced != qual.Unknown && r.Forced != r.Kind {
			switch {
			case r.Forced == qual.Safe && r.Kind != qual.Safe:
				in.diags.Warnf(r.WhyPos, "pointer annotated __SAFE was inferred %s", r.Kind)
			case r.Forced == qual.Seq && r.Kind == qual.Wild:
				in.diags.Warnf(r.WhyPos, "pointer annotated __SEQ was inferred WILD")
			}
		}
	}
	// Record the solved kind on every member of each class (so KindOf on
	// any occurrence reads the class kind).
	for _, n := range in.g.Nodes {
		n.Kind = n.Find().Kind
	}
}

// Stats summarizes the static pointer-kind distribution (the sf/sq/w/rt
// columns of Figures 8 and 9) and the cast classification of §3.
type Stats struct {
	Ptrs      int // pointer occurrences
	Safe      int
	Seq       int
	Wild      int
	Rtti      int
	Casts     int // casts involving pointers
	Identity  int
	Upcasts   int
	Downcasts int
	SeqCasts  int
	Bad       int
	Trusted   int
	Alloc     int // allocator-result casts (polymorphic allocator typing)
	Null      int
	IntCasts  int
}

// PctSafe returns the SAFE percentage (0-100).
func (s Stats) PctSafe() float64 { return pct(s.Safe, s.Ptrs) }

// PctSeq returns the SEQ percentage.
func (s Stats) PctSeq() float64 { return pct(s.Seq, s.Ptrs) }

// PctWild returns the WILD percentage.
func (s Stats) PctWild() float64 { return pct(s.Wild, s.Ptrs) }

// PctRtti returns the RTTI percentage.
func (s Stats) PctRtti() float64 { return pct(s.Rtti, s.Ptrs) }

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// ComputeStats tallies kinds over pointer occurrences and classifies casts.
func (r *Result) ComputeStats() Stats {
	var s Stats
	for _, n := range r.Graph.Nodes {
		if n.Ty == nil || n.Ty.Kind != ctypes.Ptr {
			continue
		}
		s.Ptrs++
		switch n.Find().Kind {
		case qual.Seq:
			s.Seq++
		case qual.Wild:
			s.Wild++
		case qual.Rtti:
			s.Rtti++
		default:
			s.Safe++
		}
	}
	for _, c := range r.Casts {
		switch c.Class {
		case CastNonPtr:
			continue
		case CastIdentity:
			s.Identity++
		case CastUpcast:
			s.Upcasts++
		case CastDowncast:
			s.Downcasts++
		case CastSeqTile:
			s.SeqCasts++
		case CastBad:
			s.Bad++
		case CastFromPtrTrusted:
			s.Trusted++
		case CastNull:
			s.Null++
			continue
		case CastAlloc:
			s.Alloc++ // allocator typing; counted among casts but benign
		case CastIntToPtr, CastPtrToInt:
			s.IntCasts++
			continue
		}
		s.Casts++
	}
	return s
}
