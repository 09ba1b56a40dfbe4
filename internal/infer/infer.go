// Package infer implements CCured's whole-program pointer-kind inference,
// extended per "CCured in the Real World" (PLDI 2003) with physical
// subtyping for upcasts (§3.1), RTTI pointers for checked downcasts (§3.2),
// trusted casts, and SPLIT/NOSPLIT inference for the compatible metadata
// representation (§4.2).
//
// The algorithm associates a qualifier node with each syntactic occurrence
// of a pointer type, the address of each variable, and the address of each
// structure field; generates constraints from casts, assignments, and
// pointer arithmetic; and solves for the cheapest kinds: SAFE wherever
// possible, then RTTI, then SEQ, with WILD only for genuinely bad casts.
package infer

import (
	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/qual"
	"gocured/internal/rtti"
	"gocured/internal/trace"
)

// Options configure the inference.
type Options struct {
	// NoRTTI disables the RTTI pointer kind: downcasts become bad casts
	// (the pre-PLDI03 behaviour; used for the ijpeg ablation).
	NoRTTI bool
	// NoPhysicalSubtyping disables upcast verification: upcasts become bad
	// casts (original POPL02 CCured behaviour).
	NoPhysicalSubtyping bool
	// TrustBadCasts treats every remaining bad cast as trusted instead of
	// making pointers WILD (the bind experiment trades soundness for the
	// efficient kinds; a security review starts at these casts).
	TrustBadCasts bool
	// SplitAll forces the compatible (split) representation on every
	// non-WILD type — the "all types split" overhead ablation of §5.
	SplitAll bool
	// NoOptimize disables the post-curing check optimizer (-O0). Consumed
	// by the build pipeline, not by inference itself; it lives here so one
	// options struct keys compile caching for the whole pipeline.
	NoOptimize bool
}

// CastClass classifies one cast site.
type CastClass int

// Cast classes. Identity covers physically-equal pointer types.
const (
	CastNonPtr CastClass = iota
	CastIdentity
	CastUpcast
	CastDowncast
	CastSeqTile // same tiling, valid between SEQ pointers
	CastNull    // the constant 0 to a pointer
	CastIntToPtr
	CastPtrToInt
	CastFromPtrTrusted
	CastBad
	// CastAlloc is a cast of an allocator's fresh result (malloc, calloc,
	// realloc) to its use type. CCured types allocators polymorphically:
	// the fresh memory adopts the destination type and the bounds come
	// from the allocation, so no constraint is generated.
	CastAlloc
)

var castClassNames = [...]string{"non-ptr", "identity", "upcast", "downcast",
	"seq-tile", "null", "int2ptr", "ptr2int", "trusted", "bad", "alloc"}

func (c CastClass) String() string { return castClassNames[c] }

// CastSite records the classification of one cast occurrence.
type CastSite struct {
	Pos     diag.Pos
	From    *ctypes.Type
	To      *ctypes.Type
	Class   CastClass
	TileOK  bool // for upcasts: whether the SEQ tiling rule also holds
	Trusted bool
	// WentWild is set during solving if the site had to be demoted to WILD
	// (e.g. a SEQ upcast whose tiling fails).
	WentWild bool
}

// Result is the outcome of inference.
type Result struct {
	Graph *qual.Graph
	Hier  *rtti.Hierarchy
	Casts []*CastSite
	// CastOf maps IR cast nodes to their classification (used by the
	// instrumenter to place RTTI checks).
	CastOf map[*cil.Cast]*CastSite
	Opts   Options
	Split  *SplitResult
	// Prov records every constraint edge and kind-forcing fact generated
	// during inference; Explain reconstructs blame chains from it.
	Prov *trace.Prov
}

// Explain reconstructs the blame chain for the solved kind of the pointer
// occurrence t: the shortest constraint path from t back to the cast (or
// arithmetic, annotation, ...) that forced it WILD, SEQ, or RTTI. Returns
// nil for SAFE pointers (nothing to blame) and unregistered occurrences.
func (r *Result) Explain(t *ctypes.Type) *trace.Chain {
	if r == nil || r.Prov == nil || t == nil {
		return nil
	}
	occ := r.Graph.OccNode(t)
	if occ == nil {
		return nil
	}
	var goal trace.Goal
	switch r.Graph.KindOf(t) {
	case qual.Wild:
		goal = trace.GoalWild
	case qual.Seq:
		goal = trace.GoalSeq
	case qual.Rtti:
		goal = trace.GoalRtti
	default:
		return nil
	}
	return r.Prov.Explain(occ.ID, goal)
}

type edgeClass int

const (
	edgeAssign edgeClass = iota
	edgeUpcast
	edgeDowncast
	edgeTile
)

type edge struct {
	src, dst *qual.Node
	class    edgeClass
	site     *CastSite // nil for plain assignments
}

type inferrer struct {
	prog  *cil.Program
	diags *diag.List
	opts  Options

	g      *qual.Graph
	hier   *rtti.Hierarchy
	casts  []*CastSite
	castOf map[*cil.Cast]*CastSite
	edges  []*edge
	// allocRets holds the return-type occurrences of the known allocator
	// externs; casts from them are CastAlloc.
	allocRets map[*ctypes.Type]bool
	// rec, when non-nil, captures the current function's collection pass
	// as a replayable summary (see summary.go). Plain Infer never sets it.
	rec *recorder
	// reg applies regOcc once per type occurrence for the whole inference.
	reg *ctypes.OnceWalker
	// qualSU memoizes hasQualOcc per complete struct.
	qualSU map[*ctypes.StructInfo]bool
	// match runs every physical type comparison, reusing its buffers.
	match ctypes.Matcher
}

func newInferrer(prog *cil.Program, opts Options, diags *diag.List) *inferrer {
	in := &inferrer{
		prog:      prog,
		diags:     diags,
		opts:      opts,
		g:         qual.NewGraph(),
		hier:      rtti.NewHierarchy(),
		castOf:    make(map[*cil.Cast]*CastSite),
		allocRets: make(map[*ctypes.Type]bool),
		qualSU:    make(map[*ctypes.StructInfo]bool),
	}
	in.reg = ctypes.NewOnceWalker(in.regOcc)
	return in
}

// prologue runs everything that precedes per-function constraint
// collection: allocator/wrapper extern marks, registration of every
// declaration-reachable occurrence, and global initializer constraints.
// The incremental path always runs it fresh — it is cheap and
// whole-program, the per-function summaries replay on top of it.
func (in *inferrer) prologue() {
	for _, v := range in.prog.Externs {
		if v.Type.Kind != ctypes.Func {
			continue
		}
		switch v.Name {
		case "malloc", "calloc", "realloc":
			if v.Type.Fn.Ret.IsPointer() {
				in.allocRets[v.Type.Fn.Ret] = true
			}
		case "__verify_nul", "__endof":
			// Wrapper helpers that read a pointer's bounds metadata: their
			// arguments must carry bounds (SEQ).
			for _, pt := range v.Type.Fn.Params {
				if pt.IsPointer() {
					in.g.NodeFor(pt).MarkArith()
				}
			}
		case "__mkptr":
			// The model pointer (second parameter) supplies the metadata.
			if len(v.Type.Fn.Params) == 2 && v.Type.Fn.Params[1].IsPointer() {
				in.g.NodeFor(v.Type.Fn.Params[1]).MarkArith()
			}
		}
	}
	// Register all type occurrences reachable from declarations.
	for _, g := range in.prog.Globals {
		in.regType(g.Var.Type)
		in.regType(g.Var.AddrType)
		if g.Init != nil {
			in.collectInit(g.Init, g.Var.Type)
		}
	}
	for _, v := range in.prog.Externs {
		in.regType(v.Type)
		in.regType(v.AddrType)
	}
	for _, f := range in.prog.Funcs {
		in.regType(f.Type)
		for _, p := range f.Params {
			in.regType(p.Type)
			in.regType(p.AddrType)
		}
		for _, l := range f.Locals {
			in.regType(l.Type)
			in.regType(l.AddrType)
		}
	}
}

// result runs the global solve/split phases over the collected (or
// replayed) constraints and freezes the graph.
func (in *inferrer) result() *Result {
	in.solve()
	res := &Result{
		Graph:  in.g,
		Hier:   in.hier,
		Casts:  in.casts,
		CastOf: in.castOf,
		Opts:   in.opts,
		Prov:   in.g.Prov,
	}
	res.Split = inferSplit(in.prog, in.g, in.opts.SplitAll, in.diags)
	// Freeze the qualifier graph: collapse every union-find chain so the
	// layout oracle's KindOf queries never write shared state. A compiled
	// unit can then be executed from many goroutines concurrently.
	in.g.Compress()
	return res
}

// Infer runs pointer-kind inference over prog.
func Infer(prog *cil.Program, opts Options, diags *diag.List) *Result {
	in := newInferrer(prog, opts, diags)
	in.prologue()
	for _, f := range prog.Funcs {
		in.collectFunc(f)
	}
	return in.result()
}
