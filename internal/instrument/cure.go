package instrument

import (
	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/infer"
	"gocured/internal/qual"
)

// Cured is the result of the curing transformation: the instrumented
// program, the inference result, and the kind-aware layout oracle.
type Cured struct {
	Prog *cil.Program
	Res  *infer.Result
	Lay  *Layout
	// ChecksInserted counts the static run-time checks added, by kind.
	ChecksInserted map[cil.CheckKind]int
	// Opt holds the full optimizer statistics (nil when curing ran at -O0).
	Opt *OptStats
	// Sites is the static check-site table, built by AssignSites after
	// optimization; cil.Check.Site indexes it 1-based.
	Sites []SiteInfo
	// elided holds the checks Optimize deleted outright, for AssignSites.
	elided []*cil.Check
}

// RedirectWrappers rewrites calls to wrapped extern functions so they go
// through their ccuredWrapperOf wrappers (§4.1) — except inside a wrapper
// itself, whose call reaches the real library. This must run before
// pointer-kind inference so the wrapper's constraints (e.g. __verify_nul
// requiring bounds) flow to every call site.
func RedirectWrappers(prog *cil.Program, diags *diag.List) {
	wrapperFor := make(map[string]string)
	defined := make(map[string]bool)
	for _, f := range prog.Funcs {
		defined[f.Name] = true
	}
	for _, w := range prog.Wrappers {
		if !defined[w.Wrapper] {
			diags.Warnf(diag.Pos{}, "wrapper %q for %q is not defined", w.Wrapper, w.Wrapped)
			continue
		}
		if defined[w.Wrapped] {
			continue // wrapping a defined function is a no-op
		}
		wrapperFor[w.Wrapped] = w.Wrapper
	}
	if len(wrapperFor) == 0 {
		return
	}
	// One shared function-pointer occurrence per wrapper, so inference
	// constraints from every redirected call site flow into the wrapper's
	// signature (not the wrapped prototype's).
	wrapPtrTy := make(map[string]*ctypes.Type)
	ptrTo := func(w string) *ctypes.Type {
		if t, ok := wrapPtrTy[w]; ok {
			return t
		}
		wfn := prog.Lookup(w)
		t := ctypes.PointerTo(wfn.Type)
		wrapPtrTy[w] = t
		return t
	}
	for _, f := range prog.Funcs {
		cil.WalkInstrs(f.Body.Stmts, func(i cil.Instr) {
			call, ok := i.(*cil.Call)
			if !ok {
				return
			}
			if fc, ok := call.Fn.(*cil.FnConst); ok {
				if w, has := wrapperFor[fc.Name]; has && f.Name != w {
					fc.Name = w
					fc.Ty = ptrTo(w)
				}
			}
		})
	}
}

// Cure instruments prog in place using the inference result: inserts the
// run-time checks of Appendix A before each instruction that needs them.
// RedirectWrappers must already have run (the core pipeline does so before
// inference).
func Cure(prog *cil.Program, res *infer.Result, diags *diag.List) *Cured {
	c := &curer{
		cured: &Cured{
			Prog:           prog,
			Res:            res,
			Lay:            newLayout(prog, res),
			ChecksInserted: make(map[cil.CheckKind]int),
		},
		diags: diags,
	}
	for _, f := range prog.Funcs {
		c.curFn = f
		c.cureBlock(f.Body)
	}
	// Check optimization (see optimize.go) runs as a separate pipeline
	// stage so it can be disabled with -O0; core.Build calls Optimize.
	return c.cured
}

type curer struct {
	cured   *Cured
	diags   *diag.List
	curFn   *cil.Func
	pending []cil.Instr // checks to prepend to the current statement
}

func (c *curer) emit(k cil.CheckKind, ptr cil.Expr, size int, target *ctypes.Type, dst *cil.Lvalue, pos diag.Pos) {
	chk := &cil.Check{Kind: k, Ptr: ptr, Size: size, RttiTarget: target, DstLV: dst}
	chk.Pos = pos
	c.pending = append(c.pending, chk)
	c.cured.ChecksInserted[k]++
}

// cureBlock rewrites a block, inserting pending checks before each
// statement that needs them.
func (c *curer) cureBlock(b *cil.Block) {
	var out []cil.Stmt
	for _, s := range b.Stmts {
		saved := c.pending
		c.pending = nil
		switch st := s.(type) {
		case *cil.SInstr:
			c.cureInstr(st.Ins)
		case *cil.If:
			c.cureExpr(st.Cond, diag.Pos{})
			c.cureBlock(st.Then)
			if st.Else != nil {
				c.cureBlock(st.Else)
			}
		case *cil.Loop:
			c.cureBlock(st.Body)
			if st.Post != nil {
				c.cureBlock(st.Post)
			}
		case *cil.Return:
			if st.X != nil {
				c.cureExpr(st.X, st.Pos)
			}
		case *cil.Switch:
			c.cureExpr(st.X, diag.Pos{})
			for _, cs := range st.Cases {
				inner := &cil.Block{Stmts: cs.Body}
				c.cureBlock(inner)
				cs.Body = inner.Stmts
			}
		case *cil.Block:
			c.cureBlock(st)
		}
		for _, chk := range c.pending {
			out = append(out, &cil.SInstr{Ins: chk})
		}
		c.pending = saved
		out = append(out, s)
	}
	b.Stmts = out
}

// pos helpers: If/Loop/etc. have no direct Pos; use zero.

func (c *curer) cureInstr(i cil.Instr) {
	switch in := i.(type) {
	case *cil.Set:
		c.cureExpr(in.RHS, in.Position())
		c.cureLval(in.LV, true, in.Position())
		// Writing a pointer into heap or global memory must not leak a
		// stack address (Appendix A, memory writes).
		if in.RHS.Type() != nil && in.RHS.Type().IsPointer() && in.LV.Mem != nil {
			c.emit(cil.CheckStackEscape, in.RHS, 0, nil, in.LV, in.Position())
		}
	case *cil.Call:
		c.cureExpr(in.Fn, in.Position())
		for _, a := range in.Args {
			c.cureExpr(a, in.Position())
		}
		if in.Result != nil {
			c.cureLval(in.Result, true, in.Position())
		}
		// Calls through function pointers require a non-null target.
		if _, direct := in.Fn.(*cil.FnConst); !direct {
			c.emit(cil.CheckNull, in.Fn, 0, nil, nil, in.Position())
		}
	case *cil.Check:
		// already instrumented
	}
}

// cureExpr inserts checks for every memory read and conversion in e.
func (c *curer) cureExpr(e cil.Expr, pos diag.Pos) {
	cil.WalkExpr(e, func(x cil.Expr) {
		switch v := x.(type) {
		case *cil.Lval:
			c.cureLval(v.LV, false, pos)
		case *cil.AddrOf:
			// Taking an address performs no access, but the offsets must
			// still be in bounds.
			c.cureOffsets(v.LV, pos)
		case *cil.Cast:
			c.cureCast(v, pos)
		}
	})
}

// cureCast inserts conversion checks at kind boundaries (Figure 11) and
// the isSubtype check for downcasts (Figure 2).
func (c *curer) cureCast(v *cil.Cast, pos diag.Pos) {
	site := c.cured.Res.CastOf[v]
	if site == nil || site.Trusted {
		return
	}
	from, to := v.X.Type(), v.To
	if !from.IsPointer() || !to.IsPointer() {
		return
	}
	kf, kt := c.cured.Lay.KindOf(from), c.cured.Lay.KindOf(to)
	if p := v.Pos; p.IsValid() {
		pos = p
	}
	if site.Class == infer.CastDowncast && kf == qual.Rtti {
		c.emit(cil.CheckRtti, v.X, c.cured.Lay.Sizeof(to.Elem), to.Elem, nil, pos)
		return
	}
	// Narrowing conversions: SEQ/WILD to SAFE/RTTI require null-or-in-
	// bounds for the destination's access size.
	if (kf == qual.Seq || kf == qual.Wild) && (kt == qual.Safe || kt == qual.Rtti) {
		c.emit(cil.CheckSeqToSafe, v.X, c.cured.Lay.Sizeof(to.Elem), nil, nil, pos)
	}
}

// cureLval inserts the access checks for one lvalue read or write.
func (c *curer) cureLval(lv *cil.Lvalue, isWrite bool, pos diag.Pos) {
	if lv.Mem != nil {
		pt := lv.Mem.Type()
		k := c.cured.Lay.KindOf(pt)
		size := c.cured.Lay.Sizeof(pt.Elem)
		switch k {
		case qual.Safe, qual.Rtti:
			c.emit(cil.CheckNull, lv.Mem, 0, nil, nil, pos)
		case qual.Seq:
			c.emit(cil.CheckSeq, lv.Mem, size, nil, nil, pos)
		case qual.Wild:
			c.emit(cil.CheckWild, lv.Mem, size, nil, nil, pos)
			if lv.Ty.IsPointer() {
				if isWrite {
					c.emit(cil.CheckWildWrite, lv.Mem, size, nil, nil, pos)
				} else {
					c.emit(cil.CheckWildRead, lv.Mem, size, nil, nil, pos)
				}
			}
		}
	}
	c.cureOffsets(lv, pos)
}

// cureOffsets bounds-checks non-constant (or statically out-of-range)
// array indices: the array length is known statically, so these checks
// need no fat pointers.
func (c *curer) cureOffsets(lv *cil.Lvalue, pos diag.Pos) {
	var cur *ctypes.Type
	if lv.Var != nil {
		cur = lv.Var.Type
	} else {
		cur = lv.Mem.Type().Elem
	}
	for _, o := range lv.Offset {
		if o.Field != nil {
			cur = o.Field.Type
			continue
		}
		if cur.Kind == ctypes.Array {
			if cc, ok := o.Index.(*cil.Const); !ok || cc.I < 0 || (cur.Len >= 0 && cc.I >= int64(cur.Len)) {
				c.emit(cil.CheckIndex, o.Index, cur.Len, nil, nil, pos)
			}
			cur = cur.Elem
		} else if cur.Kind == ctypes.Ptr {
			cur = cur.Elem
		}
	}
}
