package infer

import (
	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/qual"
)

// regType registers qualifier nodes for every pointer/array occurrence in
// t's reachable type graph, records base-containment edges for WILD
// spreading, and registers pointer base types in the RTTI hierarchy. The
// inference's one registration walker visits each occurrence once, so a
// type seen again (every expression of it) costs a map lookup.
func (in *inferrer) regType(t *ctypes.Type) {
	if t == nil {
		return
	}
	if in.rec != nil && in.hasQualOcc(t) {
		// Pure-scalar registrations are graph no-ops and are not recorded,
		// so summaries never reference (possibly shared) scalar types.
		in.rec.reg(t)
	}
	in.reg.Walk(t)
}

// regOcc registers one pointer/array occurrence.
func (in *inferrer) regOcc(u *ctypes.Type) {
	if u.Kind != ctypes.Ptr && u.Kind != ctypes.Array {
		return
	}
	n := in.g.NodeFor(u)
	if u.Kind == ctypes.Ptr && u.Elem.Kind != ctypes.Func {
		in.hier.Of(u.Elem)
	}
	// A decayed pointer is the same inference node as its array.
	if u.DecayOf != nil {
		in.g.UnionR(n, in.g.NodeFor(u.DecayOf), "decay", diag.Pos{})
	}
	// Base containment: pointer occurrences in the representation of
	// the pointee (not through further pointers).
	for _, b := range repPointers(u.Elem) {
		in.g.AddBase(n, in.g.NodeFor(b))
	}
}

// hasQualOcc reports whether t's reachable type graph contains any
// pointer/array occurrence (i.e. whether regType on it does anything).
// It stops at the first pointer or array, so it descends only through
// by-value structs and signatures; each complete struct's answer is
// computed once per inference.
func (in *inferrer) hasQualOcc(t *ctypes.Type) bool {
	if t == nil {
		return false
	}
	switch t.Kind {
	case ctypes.Ptr, ctypes.Array:
		return true
	case ctypes.Struct:
		if !t.SU.Complete {
			return false
		}
		has, ok := in.qualSU[t.SU]
		if !ok {
			// A struct cannot contain itself by value; the placeholder
			// only guards against malformed input.
			in.qualSU[t.SU] = false
			for _, f := range t.SU.Fields {
				if in.hasQualOcc(f.Type) {
					has = true
					break
				}
			}
			in.qualSU[t.SU] = has
		}
		return has
	case ctypes.Func:
		if in.hasQualOcc(t.Fn.Ret) {
			return true
		}
		for _, p := range t.Fn.Params {
			if in.hasQualOcc(p) {
				return true
			}
		}
	}
	return false
}

// repPointers returns the pointer/array occurrences contained in the
// in-memory representation of t (descending through structs and arrays but
// not through pointers).
func repPointers(t *ctypes.Type) []*ctypes.Type {
	var out []*ctypes.Type
	var rec func(u *ctypes.Type, depth int)
	seen := map[*ctypes.StructInfo]bool{}
	rec = func(u *ctypes.Type, depth int) {
		if u == nil || depth > 64 {
			return
		}
		switch u.Kind {
		case ctypes.Ptr:
			out = append(out, u)
		case ctypes.Array:
			out = append(out, u)
			rec(u.Elem, depth+1)
		case ctypes.Struct:
			if !u.SU.Complete || seen[u.SU] {
				return
			}
			seen[u.SU] = true
			for _, f := range u.SU.Fields {
				rec(f.Type, depth+1)
			}
		}
	}
	rec(t, 0)
	return out
}

func (in *inferrer) collectInit(init *cil.Init, ty *ctypes.Type) {
	switch {
	case init == nil || init.Zero:
	case init.IsList:
		switch ty.Kind {
		case ctypes.Array:
			for _, e := range init.List {
				in.collectInit(e, ty.Elem)
			}
		case ctypes.Struct:
			for i, e := range init.List {
				if i < len(ty.SU.Fields) {
					in.collectInit(e, ty.SU.Fields[i].Type)
				}
			}
		}
	default:
		in.collectExpr(init.Expr)
		in.flow(init.Expr.Type(), ty, "init", posOfExpr(init.Expr))
	}
}

func posOfExpr(e cil.Expr) diag.Pos {
	if c, ok := e.(*cil.Cast); ok {
		return c.Pos
	}
	return diag.Pos{}
}

// collectFunc generates constraints from one function body.
func (in *inferrer) collectFunc(f *cil.Func) {
	retTy := f.Type.Fn.Ret
	cil.WalkStmts(f.Body.Stmts, func(s cil.Stmt) {
		switch st := s.(type) {
		case *cil.SInstr:
			switch i := st.Ins.(type) {
			case *cil.Set:
				in.collectLvalue(i.LV)
				in.collectExpr(i.RHS)
				in.flow(i.RHS.Type(), i.LV.Ty, "assign", i.Position())
			case *cil.Call:
				in.collectCall(i)
			case *cil.Check:
				cil.WalkExpr(i.Ptr, func(e cil.Expr) { in.collectExprShallow(e) })
			}
		case *cil.If:
			in.collectExpr(st.Cond)
		case *cil.Return:
			if st.X != nil {
				in.collectExpr(st.X)
				in.flow(st.X.Type(), retTy, "return", st.Pos)
			}
		case *cil.Switch:
			in.collectExpr(st.X)
		}
	})
}

func (in *inferrer) collectCall(call *cil.Call) {
	if call.Result != nil {
		in.collectLvalue(call.Result)
	}
	in.collectExpr(call.Fn)
	for _, a := range call.Args {
		in.collectExpr(a)
	}
	// Determine the signature.
	ft := call.Fn.Type()
	if ft.IsPointer() {
		ft = ft.Elem
	}
	if ft.Kind != ctypes.Func {
		return
	}
	fn := ft.Fn
	for i, a := range call.Args {
		if i < len(fn.Params) {
			in.flow(a.Type(), fn.Params[i], "call-arg", call.Position())
		}
	}
	if call.Result != nil {
		in.flow(fn.Ret, call.Result.Ty, "call-ret", call.Position())
	}
}

// collectExpr registers nodes and generates constraints for e and all
// subexpressions.
func (in *inferrer) collectExpr(e cil.Expr) {
	cil.WalkExpr(e, func(x cil.Expr) { in.collectExprShallow(x) })
}

// collectExprShallow handles a single expression node (subexpressions are
// visited by the caller's walk).
func (in *inferrer) collectExprShallow(x cil.Expr) {
	switch v := x.(type) {
	case *cil.StrConst:
		in.regType(v.Ty)
	case *cil.FnConst:
		in.regType(v.Ty)
	case *cil.AddrOf:
		in.regType(v.Ty)
		in.collectLvalueShallow(v.LV)
	case *cil.Lval:
		in.collectLvalueShallow(v.LV)
	case *cil.Cast:
		in.regType(v.To)
		in.collectCast(v)
	case *cil.BinOp:
		switch v.Op {
		case cil.OpAddPI, cil.OpSubPI:
			in.regType(v.A.Type())
			in.markArithOcc(v.A.Type(), diag.Pos{})
		case cil.OpSubPP:
			for _, side := range []cil.Expr{v.A, v.B} {
				in.regType(side.Type())
				in.markArithOcc(side.Type(), diag.Pos{})
			}
		}
	}
}

// markArithOcc marks pointer arithmetic on the occurrence t, recording the
// mark by occurrence (the lookup repeats at replay, at the same sequence
// point, so it resolves to the same node).
func (in *inferrer) markArithOcc(t *ctypes.Type, pos diag.Pos) {
	if in.rec != nil {
		in.rec.mark(opArith, nil, t, pos, "")
	}
	if n := in.g.Lookup(t); n != nil {
		n.MarkArithAt(pos)
	}
}

func (in *inferrer) collectLvalue(lv *cil.Lvalue) {
	if lv.Mem != nil {
		in.collectExpr(lv.Mem)
	}
	for _, o := range lv.Offset {
		if o.Index != nil {
			in.collectExpr(o.Index)
		}
	}
	in.collectLvalueShallow(lv)
}

// collectLvalueShallow registers arithmetic implied by non-constant array
// indexing: a[i] is *(a+i) on the decayed pointer, so the array occurrence
// gets the ARITH constraint (constant in-range indices are checked
// statically and need no fat representation).
func (in *inferrer) collectLvalueShallow(lv *cil.Lvalue) {
	cur := lv.Ty
	// Recompute the chain from the base to know the array occurrences.
	if lv.Var != nil {
		cur = lv.Var.Type
		in.regType(cur)
	} else {
		cur = lv.Mem.Type().Elem
	}
	for _, o := range lv.Offset {
		if o.Field != nil {
			cur = o.Field.Type
			continue
		}
		// Index step: cur is the array type.
		if cur.Kind == ctypes.Array {
			if !isConstInRange(o.Index, cur.Len) {
				in.regType(cur)
				in.markArithOcc(cur, diag.Pos{})
			}
			cur = cur.Elem
		} else if cur.Kind == ctypes.Ptr {
			cur = cur.Elem
		}
	}
}

func isConstInRange(e cil.Expr, n int) bool {
	c, ok := e.(*cil.Const)
	return ok && c.I >= 0 && n >= 0 && c.I < int64(n)
}

// flow generates the constraint for an assignment of a value of type src to
// a location of type dst (types are structurally equal after sema). rule
// names the syntactic context ("assign", "call-arg", ...) for provenance.
func (in *inferrer) flow(src, dst *ctypes.Type, rule string, pos diag.Pos) {
	if src == nil || dst == nil || src == dst {
		return
	}
	switch {
	case src.IsPointer() && dst.IsPointer():
		in.regType(src)
		in.regType(dst)
		ns, nd := in.g.Lookup(src), in.g.Lookup(dst)
		if in.rec != nil {
			in.rec.flow(nil, nil, src, dst, rule, pos)
			in.rec.edge(nil, nil, src, dst, edgeAssign, nil)
		}
		in.g.FlowR(ns, nd, rule, pos)
		in.edges = append(in.edges, &edge{src: ns, dst: nd, class: edgeAssign})
		if ok, pairs := in.match.PhysEqual(src.Elem, dst.Elem); ok {
			in.unifyPairs(pairs, rule, pos)
		}
	case src.Kind == ctypes.Struct && dst.Kind == ctypes.Struct:
		// Struct copy: contained pointers alias the same data.
		if ok, pairs := in.match.PhysEqual(src, dst); ok {
			in.unifyPairs(pairs, "struct-copy", pos)
		}
	case src.Kind == ctypes.Array && dst.IsPointer():
		// Decayed array flow.
		in.regType(src)
		in.regType(dst)
		if in.rec != nil {
			in.rec.flow(nil, nil, src, dst, "array-decay", pos)
			in.rec.edge(nil, nil, src, dst, edgeAssign, nil)
		}
		in.g.FlowR(in.g.Lookup(src), in.g.Lookup(dst), "array-decay", pos)
		in.edges = append(in.edges, &edge{src: in.g.Lookup(src), dst: in.g.Lookup(dst), class: edgeAssign})
	}
}

// unifyPairs unions the kinds of matched pointer occurrence pairs.
func (in *inferrer) unifyPairs(pairs [][2]*ctypes.Type, rule string, pos diag.Pos) {
	for _, p := range pairs {
		in.regType(p[0])
		in.regType(p[1])
		if in.rec != nil {
			in.rec.unify(p[0], p[1], rule, pos)
		}
		a, b := in.g.Lookup(p[0]), in.g.Lookup(p[1])
		if a != nil && b != nil {
			in.g.UnionR(a, b, rule, pos)
		}
	}
}

// isNullExpr reports whether e is the constant 0 (through casts).
func isNullExpr(e cil.Expr) bool {
	switch v := e.(type) {
	case *cil.Const:
		return v.I == 0
	case *cil.Cast:
		return isNullExpr(v.X)
	}
	return false
}

// collectCast classifies a cast site and generates its constraints. This is
// the heart of §3: identity and upcasts are statically safe (physical
// subtyping), downcasts require RTTI, tile-compatible casts require SEQ,
// and everything else is bad (WILD) unless trusted.
func (in *inferrer) collectCast(c *cil.Cast) {
	from, to := c.X.Type(), c.To
	site := &CastSite{Pos: c.Pos, From: from, To: to, Trusted: c.Trusted}
	in.casts = append(in.casts, site)
	in.castOf[c] = site
	if in.rec != nil {
		in.rec.cast(c, site, from, to)
		// The classification below settles site.Class (and TileOK/Trusted)
		// on whatever branch returns; patch the recorded op on the way out.
		defer in.rec.patchCast(site)
	}

	switch {
	case !from.IsPointer() && !to.IsPointer():
		site.Class = CastNonPtr
		return
	case !from.IsPointer() && to.IsPointer():
		in.regType(to)
		if isNullExpr(c.X) {
			site.Class = CastNull
			return
		}
		site.Class = CastIntToPtr
		// A disguised integer can only live in a SEQ or WILD pointer
		// (its base field is null; it can never be dereferenced).
		if in.rec != nil {
			in.rec.mark(opIntCast, nil, to, c.Pos, "")
		}
		in.g.Lookup(to).MarkIntCastAt(c.Pos)
		return
	case from.IsPointer() && !to.IsPointer():
		in.regType(from)
		site.Class = CastPtrToInt
		return
	}

	// Pointer-to-pointer. nf/nt are cached representatives: the unifyPairs
	// calls below may merge classes, so later uses of nf/nt can name nodes
	// a fresh Lookup would no longer return. The recording binds them to
	// virtual registers here, at the lookup point, for exactly that reason.
	in.regType(from)
	in.regType(to)
	nf, nt := in.g.Lookup(from), in.g.Lookup(to)
	if in.rec != nil {
		in.rec.bind(nf, from)
		in.rec.bind(nt, to)
	}

	if c.Trusted {
		site.Class = CastFromPtrTrusted
		return
	}

	if in.allocRets[from] {
		// Fresh allocator result adopting its use type: no compatibility
		// constraint, but the data flow remains (the allocator's result
		// node must carry bounds when its uses need them).
		site.Class = CastAlloc
		in.flowEdge(nf, nt, from, to, "alloc-adopt", c.Pos, edgeAssign, site)
		return
	}

	if ok, pairs := in.match.PhysEqual(from.Elem, to.Elem); ok {
		site.Class = CastIdentity
		in.unifyPairs(pairs, "cast-identity", c.Pos)
		in.flowEdge(nf, nt, from, to, "cast-identity", c.Pos, edgeAssign, site)
		return
	}

	if !in.opts.NoPhysicalSubtyping {
		if ok, pairs := in.match.Prefix(from.Elem, to.Elem); ok {
			// Upcast: from.Elem <= to.Elem.
			site.Class = CastUpcast
			site.TileOK, _ = in.match.Tile(from.Elem, to.Elem)
			if to.Elem.IsVoid() {
				// A SEQ void* keeps byte-granular bounds and cannot be
				// dereferenced, so the tiling requirement is vacuous.
				site.TileOK = true
			}
			in.unifyPairs(pairs, "upcast", c.Pos)
			in.flowEdge(nf, nt, from, to, "upcast", c.Pos, edgeUpcast, site)
			return
		}
		if ok, pairs := in.match.Prefix(to.Elem, from.Elem); ok {
			// Downcast: to.Elem <= from.Elem.
			if in.opts.NoRTTI {
				if in.opts.TrustBadCasts {
					site.Class = CastFromPtrTrusted
					site.Trusted = true
					return
				}
				site.Class = CastBad
				in.markBadCast(nf, nt, from, to, c.Pos)
				return
			}
			site.Class = CastDowncast
			in.unifyPairs(pairs, "downcast", c.Pos)
			if in.rec != nil {
				in.rec.mark(opRtti, nf, from, c.Pos, "")
			}
			nf.MarkRttiAt(c.Pos)
			in.flowEdge(nf, nt, from, to, "downcast", c.Pos, edgeDowncast, site)
			return
		}
		if ok, pairs := in.match.Tile(from.Elem, to.Elem); ok {
			// Same tiling: valid between SEQ pointers (§3.1).
			site.Class = CastSeqTile
			in.unifyPairs(pairs, "seq-tile", c.Pos)
			if in.rec != nil {
				in.rec.mark(opArith, nf, from, c.Pos, "")
				in.rec.mark(opArith, nt, to, c.Pos, "")
			}
			nf.MarkArithAt(c.Pos)
			nt.MarkArithAt(c.Pos)
			in.flowEdge(nf, nt, from, to, "seq-tile", c.Pos, edgeTile, site)
			return
		}
	}

	if in.opts.TrustBadCasts {
		// The bind experiment: trade soundness for efficient kinds; a
		// security review starts at these casts.
		site.Class = CastFromPtrTrusted
		site.Trusted = true
		return
	}
	site.Class = CastBad
	in.markBadCast(nf, nt, from, to, c.Pos)
}

// flowEdge records a flow constraint plus its classified edge between two
// cached cast-end representatives.
func (in *inferrer) flowEdge(nf, nt *qual.Node, from, to *ctypes.Type, rule string, pos diag.Pos, class edgeClass, site *CastSite) {
	if in.rec != nil {
		in.rec.flow(nf, nt, from, to, rule, pos)
		in.rec.edge(nf, nt, from, to, class, site)
	}
	in.g.FlowR(nf, nt, rule, pos)
	in.edges = append(in.edges, &edge{src: nf, dst: nt, class: class, site: site})
}

func (in *inferrer) markBadCast(a, b *qual.Node, ta, tb *ctypes.Type, pos diag.Pos) {
	if in.rec != nil {
		in.rec.mark(opBad, a, ta, pos, "bad cast")
		in.rec.mark(opBad, b, tb, pos, "bad cast")
	}
	a.MarkBad(pos, "bad cast")
	b.MarkBad(pos, "bad cast")
	// Bad casts tie the two pointers into the untyped universe together.
	if in.rec != nil {
		in.rec.flow(a, b, ta, tb, "bad-cast", pos)
		in.rec.edge(a, b, ta, tb, edgeAssign, nil)
	}
	in.g.FlowR(a, b, "bad-cast", pos)
	in.edges = append(in.edges, &edge{src: a, dst: b, class: edgeAssign})
}
