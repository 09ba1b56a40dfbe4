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
	var byDst map[*qual.Node][]*edge
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

// wildSeeded reports whether the class should be wild right now.
func seedWild(n *qual.Node) bool {
	r := n.Find()
	return r.BadCast || r.Forced == qual.Wild
}

// propagateWild spreads WILD over every edge. A class is pushed only as
// it turns WILD, so it enters the work list at most once.
func (in *inferrer) propagateWild(reps []*qual.Node) {
	var work []*qual.Node
	push := func(n *qual.Node) {
		if n == nil {
			return
		}
		r := n.Find()
		if r.Kind != qual.Wild {
			r.Kind = qual.Wild
			work = append(work, r)
		}
	}
	for _, r := range reps {
		if r.Kind == qual.Wild || seedWild(r) {
			push(r)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, m := range n.FlowsOut() {
			push(m)
		}
		for _, m := range n.FlowsIn() {
			push(m)
		}
		for _, m := range n.BaseNodes() {
			push(m)
		}
	}
}

// seqNeeded reports whether the class demands at least SEQ.
func seqNeeded(r *qual.Node) bool {
	return r.Arith || r.IntCast || r.Forced == qual.Seq
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

func (in *inferrer) propagateSeq(reps []*qual.Node) {
	in.propagateIntCast(reps)
	// Seed.
	var work, marked []*qual.Node
	seq := make([]bool, len(in.g.Nodes)+1) // by node ID
	push := func(n *qual.Node) {
		if n == nil {
			return
		}
		r := n.Find()
		if r.Kind == qual.Wild || seq[r.ID] {
			return
		}
		seq[r.ID] = true
		work = append(work, r)
		marked = append(marked, r)
	}
	for _, r := range reps {
		if r.Kind != qual.Wild && seqNeeded(r) {
			push(r)
		}
	}
	// SEQ propagates against the data flow: if the destination needs
	// bounds, the source must carry them.
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, m := range n.FlowsIn() {
			push(m)
		}
	}
	for _, r := range marked {
		if r.Kind != qual.Wild {
			r.Kind = qual.Seq
		}
	}
}

// edgesByDst indexes the flow edges by destination class, for the RTTI
// step's backward propagation.
func (in *inferrer) edgesByDst() map[*qual.Node][]*edge {
	byDst := map[*qual.Node][]*edge{}
	for _, e := range in.edges {
		if e.src == nil || e.dst == nil {
			continue
		}
		byDst[e.dst.Find()] = append(byDst[e.dst.Find()], e)
	}
	return byDst
}

func (in *inferrer) propagateRtti(reps []*qual.Node, byDst map[*qual.Node][]*edge) {
	rt := make([]bool, len(in.g.Nodes)+1) // by node ID
	var work, marked []*qual.Node
	push := func(n *qual.Node) {
		if n == nil {
			return
		}
		r := n.Find()
		if r.Kind == qual.Wild || r.Kind == qual.Seq || rt[r.ID] {
			return
		}
		rt[r.ID] = true
		work = append(work, r)
		marked = append(marked, r)
	}
	for _, r := range reps {
		if (r.RttiNeed || r.Forced == qual.Rtti) && r.Kind != qual.Wild && r.Kind != qual.Seq {
			push(r)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range byDst[n] {
			src := e.src.Find()
			switch e.class {
			case edgeAssign:
				// Physically equal: q' = RTTI => q = RTTI.
				push(src)
			case edgeUpcast:
				// Propagate only if the source's static type has subtypes
				// occurring in the program; otherwise its static type is
				// exact and SAFE suffices.
				if src.Ty != nil && src.Ty.Elem != nil {
					if in.hier.HasStrictSubtypes(in.hier.Of(src.Ty.Elem)) {
						push(src)
					}
				}
			}
		}
	}
	for _, r := range marked {
		if r.Kind != qual.Wild && r.Kind != qual.Seq {
			r.Kind = qual.Rtti
		}
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
