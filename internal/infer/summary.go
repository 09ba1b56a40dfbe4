// Per-function constraint summaries.
//
// The whole-program inference of this package walks every function body,
// classifying casts (PhysEqual/Prefix/Tile structural comparisons) and
// mutating the qualifier graph (node registration, unions, flow edges,
// kind-forcing marks). A summary records the graph mutations of one
// function's collection pass as a flat op stream whose operands are
// symbolic occurrence references, so a later compile of an unchanged
// function can *replay* the stream against a fresh graph — skipping the
// body walk and every structural type comparison — and still produce a
// bit-identical graph (same node creation order, same node IDs, same
// provenance edges, same cast sites).
//
// Two properties make the replay exact:
//
//  1. Op emission is purely structural. Every decision the collector makes
//     while emitting ops (cast classification, null detection, allocator
//     detection) depends only on the function body, the declarations it
//     references, and the inference options — never on qualifier-graph
//     state. All of those inputs are covered by the summary's content hash
//     (the body and declaration fingerprints + the store key), so a hash
//     match guarantees the recorded stream is exactly what a fresh
//     collection would emit.
//
//  2. Graph-state-dependent values are re-derived at replay time, at the
//     same sequence point. Ops name type occurrences, not node IDs; a
//     replayed Lookup at op position k sees the same graph state as the
//     recorded Lookup did, so it returns the same node. Where the original
//     collector caches a Lookup across intervening unions (collectCast's
//     nf/nt), the recording binds the node to a virtual register at the
//     original lookup point and later ops reference the register.
package infer

import (
	"strconv"
	"strings"

	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/qual"
)

// OccRef names one type occurrence symbolically: the idx-th occurrence
// visited while enumerating the owner scope. Owners are per-declaration
// ("su:<i>:<name>", "g:<var>", "ga:<var>", "x:<extern>", "xa:<extern>",
// "fs:<func>", "fa:<callee>") or per-function-body ("fn:<func>"); indices
// are assigned independently per owner so that an edit to one function
// cannot shift another function's indices.
type OccRef struct {
	Owner string
	Idx   int32
}

// occTable is the bidirectional occurrence naming built from one parse.
type occTable struct {
	byOwner map[string][]*ctypes.Type // each owner's occurrences, by index
	byType  map[*ctypes.Type]occSlot

	// The owner being enumerated: its name, its number (owners count
	// from 1), its occurrences so far, and array decays not yet walked.
	owner   string
	n       int32
	occs    []*ctypes.Type
	pending []*ctypes.Type
}

// occSlot holds an occurrence's first-touch canonical name and the number
// of the last owner that enumerated it. Dedup is per owner: an occurrence
// reachable from two roots of one owner gets one index, but an occurrence
// already claimed by an earlier owner still gets an index in a later one
// (byOwner must resolve it without consulting other owners).
type occSlot struct {
	name OccRef
	last int32
}

func (tab *occTable) begin(owner string) {
	tab.owner, tab.occs = owner, nil
	tab.n++
}

func (tab *occTable) root(t *ctypes.Type) {
	tab.walk(t)
	for len(tab.pending) > 0 {
		cur := tab.pending[0]
		tab.pending = tab.pending[1:]
		tab.walk(cur)
	}
}

func (tab *occTable) end() { tab.byOwner[tab.owner] = tab.occs }

// single enumerates an owner with one root.
func (tab *occTable) single(owner string, t *ctypes.Type) {
	tab.begin(owner)
	tab.root(t)
	tab.end()
}

// walk names the occurrences reachable from t in pre-order without
// entering a struct: a struct's field occurrences belong to the owner of
// its declaration, which the declaration fingerprint covers. The parser
// lists every struct it creates, so every field occurrence has that owner.
func (tab *occTable) walk(t *ctypes.Type) {
	if t == nil {
		return
	}
	slot, ok := tab.byType[t]
	if ok && slot.last == tab.n {
		return
	}
	if !ok {
		slot.name = OccRef{Owner: tab.owner, Idx: int32(len(tab.occs))}
	}
	slot.last = tab.n
	tab.byType[t] = slot
	tab.occs = append(tab.occs, t)
	switch t.Kind {
	case ctypes.Array:
		// Array occurrences carry a cached per-occurrence decay pointer
		// that is shared by every function decaying that array (e.g. a
		// struct field `int d[8]` used as `s->d`). Enumerate it eagerly
		// under the same owner so its existence — and therefore every
		// index in this owner — does not depend on which function bodies
		// happen to decay it.
		tab.pending = append(tab.pending, t.Decay())
		tab.walk(t.Elem)
	case ctypes.Ptr:
		tab.walk(t.Elem)
	case ctypes.Func:
		tab.walk(t.Fn.Ret)
		for _, p := range t.Fn.Params {
			tab.walk(p)
		}
	}
}

// forEachFuncType visits every type-occurrence root in one function's
// scope, in a fixed order shared by the occurrence table and the body
// fingerprint: params/locals (value and address types), instruction result
// lvalue types, then every expression's type (and cast target types) in
// WalkFuncExprs order.
func forEachFuncType(f *cil.Func, visit func(*ctypes.Type)) {
	for _, p := range f.Params {
		visit(p.Type)
		visit(p.AddrType)
	}
	for _, l := range f.Locals {
		visit(l.Type)
		visit(l.AddrType)
	}
	cil.WalkInstrs(f.Body.Stmts, func(i cil.Instr) {
		switch in := i.(type) {
		case *cil.Set:
			visit(in.LV.Ty)
		case *cil.Call:
			if in.Result != nil {
				visit(in.Result.Ty)
			}
		}
	})
	cil.WalkFuncExprs(f, func(x cil.Expr) {
		visit(x.Type())
		if c, ok := x.(*cil.Cast); ok {
			visit(c.To)
		}
	})
}

// newOccTable enumerates every occurrence of the program. Declaration-owned
// scopes come first (in declaration order), so an occurrence shared between
// a declaration and a body gets the declaration's stable name; function
// scopes follow in program order.
func newOccTable(prog *cil.Program) *occTable {
	tab := &occTable{
		byOwner: make(map[string][]*ctypes.Type),
		byType:  make(map[*ctypes.Type]occSlot),
	}
	for i, su := range prog.Structs {
		tab.begin("su:" + strconv.Itoa(i) + ":" + su.Name)
		for _, f := range su.Fields {
			tab.root(f.Type)
			// The per-field address occurrence (shared by every &s.f in the
			// program) is created lazily by sema; create it here so the
			// owner's shape is the same whether or not any body takes the
			// address, then name it under the defining struct.
			if f.AddrType == nil {
				f.AddrType = ctypes.PointerTo(f.Type)
			}
			tab.root(f.AddrType)
		}
		tab.end()
	}
	for _, g := range prog.Globals {
		tab.single("g:"+g.Var.Name, g.Var.Type)
		tab.single("ga:"+g.Var.Name, g.Var.AddrType)
	}
	for _, v := range prog.Externs {
		tab.single("x:"+v.Name, v.Type)
		tab.single("xa:"+v.Name, v.AddrType)
	}
	for _, f := range prog.Funcs {
		tab.single("fs:"+f.Name, f.Type)
	}
	// Function-address occurrences: every call site of a defined function
	// shares the function symbol's AddrType (FnConst.Ty), which is not
	// reachable from any declaration root. Name each by its callee, so one
	// caller's edit cannot shift the occurrence out from under the others.
	fnAddr := make(map[string]bool)
	for _, f := range prog.Funcs {
		cil.WalkFuncExprs(f, func(e cil.Expr) {
			if fc, ok := e.(*cil.FnConst); ok && !fnAddr[fc.Name] {
				fnAddr[fc.Name] = true
				tab.single("fa:"+fc.Name, fc.Ty)
			}
		})
	}
	for _, f := range prog.Funcs {
		tab.begin("fn:" + f.Name)
		forEachFuncType(f, tab.root)
		tab.end()
	}
	return tab
}

// castsOf enumerates the cast nodes of a function body in WalkFuncExprs
// order; summaries rebind cast sites to IR nodes by this index.
func castsOf(f *cil.Func) []*cil.Cast {
	var out []*cil.Cast
	cil.WalkFuncExprs(f, func(e cil.Expr) {
		if c, ok := e.(*cil.Cast); ok {
			out = append(out, c)
		}
	})
	return out
}

// Op codes for the summary op stream.
const (
	opReg     uint8 = iota // A: occ — regType(occ)
	opBind                 // A: occ — push Lookup(occ) onto the register stack
	opUnify                // A,B: occs — Lookup both; UnionR if both non-nil
	opFlow                 // A,B: occ/reg — FlowR
	opEdge                 // A,B: occ/reg — append constraint edge (Class, Site)
	opArith                // A: occ/reg — MarkArithAt
	opIntCast              // A: occ/reg — MarkIntCastAt
	opRtti                 // A: occ/reg — MarkRttiAt
	opBad                  // A: occ/reg — MarkBad(pos, why=Rule)
	opCast                 // N: cast index; A,B: from/to occs; Class/TileOK/Trusted
)

// Op is one recorded graph mutation. A and B index the summary's Occs
// table, or (when AReg/BReg) the virtual register stack built by opBind.
// Rule and File index the summary's interned string table (-1 = none).
type Op struct {
	Code       uint8
	AReg, BReg bool
	A, B       int32
	Rule       int32
	File       int32
	Line, Col  int32
	Class      uint8
	TileOK     bool
	Trusted    bool
	Site       int32 // cast-site index for opEdge (-1 = plain assignment)
	N          int32 // cast enumeration index for opCast
}

// SumOcc is one occurrence reference: Owner indexes the summary's Owners
// table, Idx is the per-owner enumeration index.
type SumOcc struct {
	Owner int32
	Idx   int32
}

// FuncDep records a cross-function occurrence reference: the summary named
// an occurrence first touched in another function's body, so it is valid
// only while that body is unchanged. (Declaration-owned references need no
// entry: the declaration fingerprint is part of the chunk key.)
type FuncDep struct {
	Fn   string
	Body [32]byte
}

// FuncSummary is the serializable constraint summary of one function.
type FuncSummary struct {
	Func   string
	Owners []string
	Occs   []SumOcc
	Strs   []string
	Ops    []Op
	Deps   []FuncDep
	NSites int32 // number of opCast ops (sanity bound for Site refs)
	NCasts int32 // casts expected in the body's enumeration
}

// recorder captures one function's collection pass as a FuncSummary.
type recorder struct {
	tab     *occTable
	owner   string // "fn:<name>" of the function being recorded
	castN   map[*cil.Cast]int32
	sum     *FuncSummary
	ownerIx map[string]int32
	strIx   map[string]int32
	occIx   map[OccRef]int32
	regOf   map[*qual.Node]int32
	nreg    int32
	siteOp  map[*CastSite]int
	depFns  map[string]bool
	// bad marks the summary unstorable: an operand occurrence could not be
	// named symbolically. Collection itself is unaffected; the function is
	// simply re-collected on every compile.
	bad bool
}

func newRecorder(tab *occTable, f *cil.Func, casts []*cil.Cast) *recorder {
	r := &recorder{
		tab:     tab,
		owner:   "fn:" + f.Name,
		castN:   make(map[*cil.Cast]int32, len(casts)),
		sum:     &FuncSummary{Func: f.Name, NCasts: int32(len(casts))},
		ownerIx: make(map[string]int32),
		strIx:   make(map[string]int32),
		occIx:   make(map[OccRef]int32),
		regOf:   make(map[*qual.Node]int32),
		siteOp:  make(map[*CastSite]int),
		depFns:  make(map[string]bool),
	}
	for i, c := range casts {
		r.castN[c] = int32(i)
	}
	return r
}

func (r *recorder) str(s string) int32 {
	if s == "" {
		return -1
	}
	if ix, ok := r.strIx[s]; ok {
		return ix
	}
	ix := int32(len(r.sum.Strs))
	r.sum.Strs = append(r.sum.Strs, s)
	r.strIx[s] = ix
	return ix
}

func (r *recorder) occ(t *ctypes.Type) int32 {
	slot, ok := r.tab.byType[t]
	ref := slot.name
	if !ok {
		r.bad = true
		return -1
	}
	if strings.HasPrefix(ref.Owner, "fn:") && ref.Owner != r.owner {
		r.depFns[strings.TrimPrefix(ref.Owner, "fn:")] = true
	}
	if ix, ok := r.occIx[ref]; ok {
		return ix
	}
	oix, ok := r.ownerIx[ref.Owner]
	if !ok {
		oix = int32(len(r.sum.Owners))
		r.sum.Owners = append(r.sum.Owners, ref.Owner)
		r.ownerIx[ref.Owner] = oix
	}
	ix := int32(len(r.sum.Occs))
	r.sum.Occs = append(r.sum.Occs, SumOcc{Owner: oix, Idx: ref.Idx})
	r.occIx[ref] = ix
	return ix
}

func (r *recorder) emit(op Op, pos diag.Pos) {
	op.File = r.str(pos.File)
	op.Line, op.Col = int32(pos.Line), int32(pos.Col)
	r.sum.Ops = append(r.sum.Ops, op)
}

// arg builds an occ-or-reg operand for node n looked up from occurrence t.
// If n is already register-bound, the register reference is used (the node
// may be a stale pre-union representative that a fresh Lookup would no
// longer return).
func (r *recorder) arg(n *qual.Node, t *ctypes.Type) (int32, bool) {
	if n != nil {
		if reg, ok := r.regOf[n]; ok {
			return reg, true
		}
	}
	return r.occ(t), false
}

func (r *recorder) reg(t *ctypes.Type) {
	r.emit(Op{Code: opReg, A: r.occ(t), B: -1, Rule: -1, Site: -1}, diag.Pos{})
}

// bind records a register binding for node n (the Lookup result of t at
// this sequence point). Re-binding an already bound node is a no-op: the
// existing register resolves to the same node at replay.
func (r *recorder) bind(n *qual.Node, t *ctypes.Type) {
	if n == nil {
		return
	}
	if _, ok := r.regOf[n]; ok {
		return
	}
	r.regOf[n] = r.nreg
	r.nreg++
	r.emit(Op{Code: opBind, A: r.occ(t), B: -1, Rule: -1, Site: -1}, diag.Pos{})
}

func (r *recorder) unify(a, b *ctypes.Type, rule string, pos diag.Pos) {
	r.emit(Op{Code: opUnify, A: r.occ(a), B: r.occ(b), Rule: r.str(rule), Site: -1}, pos)
}

func (r *recorder) flow(na, nb *qual.Node, ta, tb *ctypes.Type, rule string, pos diag.Pos) {
	a, areg := r.arg(na, ta)
	b, breg := r.arg(nb, tb)
	r.emit(Op{Code: opFlow, A: a, AReg: areg, B: b, BReg: breg, Rule: r.str(rule), Site: -1}, pos)
}

func (r *recorder) edge(na, nb *qual.Node, ta, tb *ctypes.Type, class edgeClass, site *CastSite) {
	a, areg := r.arg(na, ta)
	b, breg := r.arg(nb, tb)
	siteIx := int32(-1)
	if site != nil {
		if opIx, ok := r.siteOp[site]; ok {
			siteIx = r.sum.Ops[opIx].Site // site index == order of opCast emission
		} else {
			r.bad = true
		}
	}
	r.emit(Op{Code: opEdge, A: a, AReg: areg, B: b, BReg: breg, Rule: -1, Class: uint8(class), Site: siteIx}, diag.Pos{})
}

func (r *recorder) mark(code uint8, n *qual.Node, t *ctypes.Type, pos diag.Pos, why string) {
	a, areg := r.arg(n, t)
	r.emit(Op{Code: code, A: a, AReg: areg, B: -1, Rule: r.str(why), Site: -1}, pos)
}

// cast records the creation of a cast site; class/tile/trusted fields are
// patched in place by patchCast once classification completes.
func (r *recorder) cast(c *cil.Cast, site *CastSite, from, to *ctypes.Type) {
	n, ok := r.castN[c]
	if !ok {
		r.bad = true
		return
	}
	r.siteOp[site] = len(r.sum.Ops)
	// Site carries the site's own sequence index so opEdge can reference it.
	siteIx := r.sum.NSites
	r.sum.NSites++
	r.emit(Op{Code: opCast, A: r.occ(from), B: r.occ(to), Rule: -1, N: n, Site: siteIx}, site.Pos)
}

func (r *recorder) patchCast(site *CastSite) {
	ix, ok := r.siteOp[site]
	if !ok {
		return
	}
	op := &r.sum.Ops[ix]
	op.Class = uint8(site.Class)
	op.TileOK = site.TileOK
	op.Trusted = site.Trusted
}

// finish seals the summary, resolving cross-function occurrence deps
// against the current body fingerprints.
func (r *recorder) finish(bodies map[string][32]byte) *FuncSummary {
	for fn := range r.depFns {
		body, ok := bodies[fn]
		if !ok {
			r.bad = true
			return r.sum
		}
		r.sum.Deps = append(r.sum.Deps, FuncDep{Fn: fn, Body: body})
	}
	// Deterministic dep order (map iteration is not).
	for i := 1; i < len(r.sum.Deps); i++ {
		for j := i; j > 0 && r.sum.Deps[j].Fn < r.sum.Deps[j-1].Fn; j-- {
			r.sum.Deps[j], r.sum.Deps[j-1] = r.sum.Deps[j-1], r.sum.Deps[j]
		}
	}
	return r.sum
}
