package vm

import (
	"fmt"
	"math"

	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/qual"
)

// Compile lowers every function of prog to bytecode. The VM is the only
// production engine, so every function must lower: an IR shape the compiler
// does not handle is an internal compiler error, and Compile panics with
// "vm: compile <fn>: <reason>".
func Compile(prog *cil.Program, lay Layout) *Module {
	mod := &Module{
		Prog:   prog,
		ByFunc: make(map[*cil.Func]*FuncCode, len(prog.Funcs)),
	}
	globalIdx := make(map[*cil.Var]int32)
	for _, fn := range prog.Funcs {
		fc := compileFunc(fn, lay, mod, globalIdx)
		mod.Funcs = append(mod.Funcs, fc)
		mod.ByFunc[fn] = fc
	}
	// Link direct-call targets now that every function has compiled (the
	// callee may appear later in the file, or be recursive).
	for _, fc := range mod.Funcs {
		for i := range fc.Calls {
			if f := fc.Calls[i].Fn; f != nil {
				fc.Calls[i].FC = mod.ByFunc[f]
			}
		}
	}
	return mod
}

func compileFunc(fn *cil.Func, lay Layout, mod *Module, globalIdx map[*cil.Var]int32) *FuncCode {
	size, offsets := FrameLayout(fn, lay)
	c := &fnCompiler{
		fn:        fn,
		lay:       lay,
		mod:       mod,
		globalIdx: globalIdx,
		offsets:   offsets,
		fc:        &FuncCode{Fn: fn, FrameSize: size},
		constIdx:  make(map[int64]int32),
		floatIdx:  make(map[float64]int32),
		strIdx:    make(map[string]int32),
		nameIdx:   make(map[string]int32),
		typeIdx:   make(map[*ctypes.Type]int32),
		posIdx:    make(map[diag.Pos]int32),
		convIdx:   make(map[ConvInfo]int32),
		binIdx:    make(map[BinInfo]int32),
		unIdx:     make(map[UnInfo]int32),
	}
	for _, p := range fn.Params {
		c.fc.ParamOffs = append(c.fc.ParamOffs, offsets[p])
		c.fc.ParamTys = append(c.fc.ParamTys, c.typeI(p.Type))
	}
	c.block(fn.Body)
	c.fc.NumRegs = int(c.maxReg)
	if c.fc.NumRegs == 0 {
		c.fc.NumRegs = 1
	}
	return c.fc
}

type loopCtx struct {
	breaks     []int // OpJump indices to patch to the loop/switch end
	contJumps  []int // OpJump indices to patch to the post-block head
	contTarget int   // backward continue target (-1: patch contJumps)
}

type fnCompiler struct {
	fn        *cil.Func
	lay       Layout
	mod       *Module
	globalIdx map[*cil.Var]int32
	offsets   map[*cil.Var]uint32
	fc        *FuncCode

	top, maxReg int32

	// breakables is the stack Break binds to (loops and switches); loops
	// additionally binds Continue.
	breakables []*loopCtx
	loops      []*loopCtx

	// barrier is the highest code index handed out as a jump target; the
	// peephole fuser never merges across it.
	barrier int
	// rk is what each register is proven to hold after the code emitted
	// so far (see specialize); srcK is the proof the last OpFieldOff or
	// OpUn found on the operand it overwrote in place.
	rk   []regKind
	srcK regKind

	constIdx map[int64]int32
	floatIdx map[float64]int32
	strIdx   map[string]int32
	nameIdx  map[string]int32
	typeIdx  map[*ctypes.Type]int32
	posIdx   map[diag.Pos]int32
	convIdx  map[ConvInfo]int32
	binIdx   map[BinInfo]int32
	unIdx    map[UnInfo]int32
}

// fail aborts the compilation with an internal compiler error naming the
// function being lowered.
func (c *fnCompiler) fail(format string, args ...any) {
	panic(fmt.Sprintf("vm: compile %s: %s", c.fn.Name, fmt.Sprintf(format, args...)))
}

// ---- registers ----

func (c *fnCompiler) alloc() int32 {
	r := c.top
	c.top++
	if c.top > c.maxReg {
		c.maxReg = c.top
		c.rk = append(c.rk, rkAny)
	}
	return r
}

func (c *fnCompiler) release(to int32) { c.top = to }

// ---- emission ----

// emit appends in, first specialized by the proven register kinds and then
// fused into the instructions before it for as long as fuse finds a
// superinstruction. It returns the index in (or its fusion) landed at.
func (c *fnCompiler) emit(in Instr) int {
	c.specialize(&in)
	for c.fusable() {
		n := len(c.fc.Code) - 1
		f, ok := c.fuse(c.fc.Code[n], in)
		if !ok {
			break
		}
		c.fc.Code, in = c.fc.Code[:n], f
	}
	c.fc.Code = append(c.fc.Code, in)
	return len(c.fc.Code) - 1
}

// here hands out the current position as a (future) jump target. It
// raises the fusion barrier, because once an index is a label the
// instruction emitted there must stay a separate dispatch, and forgets
// every kind proof, because control merges there.
func (c *fnCompiler) here() int32 {
	c.barrier = len(c.fc.Code)
	clear(c.rk)
	return int32(len(c.fc.Code))
}

func (c *fnCompiler) patch(at int) { c.fc.Code[at].A = c.here() }

// fusable reports whether the next instruction may merge into the last
// one: there is a last instruction, and no label points at the slot
// after it (a label at the last instruction itself is fine — jumping
// there runs the fused pair, exactly what the split pair did). No jump
// can target a slot past the barrier, so merging never moves a target.
func (c *fnCompiler) fusable() bool {
	return len(c.fc.Code) > 0 && c.barrier < len(c.fc.Code)
}

// ---- pools ----

func (c *fnCompiler) constI(v int64) int32 {
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := int32(len(c.fc.Consts))
	c.fc.Consts = append(c.fc.Consts, v)
	c.constIdx[v] = i
	return i
}

func (c *fnCompiler) floatI(v float64) int32 {
	if i, ok := c.floatIdx[v]; ok {
		return i
	}
	i := int32(len(c.fc.Floats))
	c.fc.Floats = append(c.fc.Floats, v)
	c.floatIdx[v] = i
	return i
}

func (c *fnCompiler) strI(s string) int32 {
	if i, ok := c.strIdx[s]; ok {
		return i
	}
	i := int32(len(c.fc.Strs))
	c.fc.Strs = append(c.fc.Strs, s)
	c.strIdx[s] = i
	return i
}

func (c *fnCompiler) nameI(s string) int32 {
	if i, ok := c.nameIdx[s]; ok {
		return i
	}
	i := int32(len(c.fc.Names))
	c.fc.Names = append(c.fc.Names, s)
	c.nameIdx[s] = i
	return i
}

func (c *fnCompiler) typeI(t *ctypes.Type) int32 {
	if i, ok := c.typeIdx[t]; ok {
		return i
	}
	i := int32(len(c.fc.Types))
	c.fc.Types = append(c.fc.Types, t)
	c.fc.TySizes = append(c.fc.TySizes, scalarSize(c.lay, t))
	c.fc.TyDescs = append(c.fc.TyDescs, TyDesc{
		Kind:   t.Kind,
		Size:   int32(t.Size),
		Signed: t.Signed,
		Split:  c.lay.IsSplit(t),
		PKind:  c.lay.KindOf(t),
	})
	c.typeIdx[t] = i
	return i
}

func (c *fnCompiler) posI(p diag.Pos) int32 {
	if i, ok := c.posIdx[p]; ok {
		return i
	}
	i := int32(len(c.fc.Poss))
	c.fc.Poss = append(c.fc.Poss, p)
	c.posIdx[p] = i
	return i
}

func (c *fnCompiler) convI(cv ConvInfo) int32 {
	if i, ok := c.convIdx[cv]; ok {
		return i
	}
	i := int32(len(c.fc.Convs))
	c.fc.Convs = append(c.fc.Convs, cv)
	c.convIdx[cv] = i
	return i
}

func (c *fnCompiler) binI(b BinInfo) int32 {
	if i, ok := c.binIdx[b]; ok {
		return i
	}
	i := int32(len(c.fc.Bins))
	c.fc.Bins = append(c.fc.Bins, b)
	c.binIdx[b] = i
	return i
}

func (c *fnCompiler) unI(u UnInfo) int32 {
	if i, ok := c.unIdx[u]; ok {
		return i
	}
	i := int32(len(c.fc.Uns))
	c.fc.Uns = append(c.fc.Uns, u)
	c.unIdx[u] = i
	return i
}

func (c *fnCompiler) globalI(v *cil.Var) int32 {
	if i, ok := c.globalIdx[v]; ok {
		return i
	}
	i := int32(len(c.mod.Globals))
	c.mod.Globals = append(c.mod.Globals, v)
	c.globalIdx[v] = i
	return i
}

func (c *fnCompiler) checkI(chk *cil.Check) int32 {
	c.fc.Checks = append(c.fc.Checks, chk)
	return int32(len(c.fc.Checks) - 1)
}

func (c *fnCompiler) callI(ci CallInfo) int32 {
	c.fc.Calls = append(c.fc.Calls, ci)
	return int32(len(c.fc.Calls) - 1)
}

// ---- statements ----

func (c *fnCompiler) block(b *cil.Block) {
	for _, s := range b.Stmts {
		c.stmt(s)
	}
}

// step emits the per-statement step charge; pos (when valid) is recorded
// after the step fires, matching the tree's order (the profiler samples
// inside step, attributing to the previous statement's line, and a
// step-limit trap reports the previous position too).
func (c *fnCompiler) step(pos diag.Pos) {
	a := int32(-1)
	if pos.IsValid() {
		a = c.posI(pos)
	}
	c.emit(Instr{Op: OpStep, A: a})
}

func (c *fnCompiler) stmt(s cil.Stmt) {
	mark := c.top
	defer c.release(mark)
	switch st := s.(type) {
	case *cil.Block:
		c.block(st)
	case *cil.SInstr:
		c.step(st.Ins.Position())
		c.instr(st.Ins)
	case *cil.If:
		c.step(diag.Pos{})
		// The condition dies at the branch: If releases it right after.
		jf := c.emit(Instr{Op: OpJumpFalse, A: -1, B: c.expr(st.Cond)})
		c.release(mark)
		c.block(st.Then)
		if st.Else != nil {
			j := c.emit(Instr{Op: OpJump, A: -1})
			c.patch(jf)
			c.block(st.Else)
			c.patch(j)
		} else {
			c.patch(jf)
		}
	case *cil.Loop:
		head := c.here()
		c.emit(Instr{Op: OpBackEdge})
		lc := &loopCtx{contTarget: int(head)}
		if st.Post != nil {
			lc.contTarget = -1
		}
		c.breakables = append(c.breakables, lc)
		c.loops = append(c.loops, lc)
		c.block(st.Body)
		if st.Post != nil {
			// Continue lands on the post block; a Continue *inside* the
			// post block behaves like normal completion (tree semantics),
			// so the post compiles with the loop head as its target.
			for _, j := range lc.contJumps {
				c.patch(j)
			}
			lc.contJumps = nil
			lc.contTarget = int(head)
			c.block(st.Post)
		}
		// The loop tail always jumps to the head's OpBackEdge; fusing the
		// charge into the jump (landing past it) saves a dispatch per
		// iteration. Nothing runs between the pair, so the order swap is
		// unobservable. First entry still falls through the OpBackEdge.
		c.emit(Instr{Op: OpJumpBack, A: head + 1})
		for _, j := range lc.breaks {
			c.patch(j)
		}
		c.breakables = c.breakables[:len(c.breakables)-1]
		c.loops = c.loops[:len(c.loops)-1]
	case *cil.Break:
		if len(c.breakables) == 0 {
			c.fail("break outside loop/switch")
		}
		bc := c.breakables[len(c.breakables)-1]
		bc.breaks = append(bc.breaks, c.emit(Instr{Op: OpJump, A: -1}))
	case *cil.Continue:
		if len(c.loops) == 0 {
			c.fail("continue outside loop")
		}
		lc := c.loops[len(c.loops)-1]
		if lc.contTarget >= 0 {
			// contTarget is always the loop head's OpBackEdge: fuse like
			// the loop tail does.
			c.emit(Instr{Op: OpJumpBack, A: int32(lc.contTarget) + 1})
		} else {
			lc.contJumps = append(lc.contJumps, c.emit(Instr{Op: OpJump, A: -1}))
		}
	case *cil.Return:
		c.step(st.Pos)
		if st.X == nil {
			c.emit(Instr{Op: OpReturn, A: -1})
			return
		}
		r := c.expr(st.X)
		c.conv(r, st.X.Type(), c.fn.Type.Fn.Ret, false)
		c.emit(Instr{Op: OpReturn, A: r})
	case *cil.Switch:
		c.step(diag.Pos{})
		r := c.expr(st.X)
		// Dispatch mirrors the tree: first matching non-default case wins,
		// otherwise the last default; case bodies then run sequentially
		// with C fallthrough until a break.
		type armPatch struct {
			jump int
			arm  int
		}
		var dispatch []armPatch
		dflt := -1
		for i, cs := range st.Cases {
			if cs.IsDefault {
				dflt = i
				continue
			}
			j := c.emit(Instr{Op: OpJumpEq, A: -1, B: r, C: c.constI(cs.Val)})
			dispatch = append(dispatch, armPatch{jump: j, arm: i})
		}
		miss := c.emit(Instr{Op: OpJump, A: -1})
		c.release(mark)
		sc := &loopCtx{}
		c.breakables = append(c.breakables, sc)
		armStart := make([]int32, len(st.Cases))
		for i, cs := range st.Cases {
			armStart[i] = c.here()
			for _, s2 := range cs.Body {
				c.stmt(s2)
			}
		}
		end := c.here()
		for _, d := range dispatch {
			c.fc.Code[d.jump].A = armStart[d.arm]
		}
		if dflt >= 0 {
			c.fc.Code[miss].A = armStart[dflt]
		} else {
			c.fc.Code[miss].A = end
		}
		for _, j := range sc.breaks {
			c.patch(j)
		}
		c.breakables = c.breakables[:len(c.breakables)-1]
	default:
		c.fail("unknown statement %T", s)
	}
}

// ---- instructions ----

func (c *fnCompiler) instr(i cil.Instr) {
	switch in := i.(type) {
	case *cil.Set:
		if in.LV.Ty.Kind == ctypes.Struct || in.LV.Ty.Kind == ctypes.Array {
			rhs, ok := in.RHS.(*cil.Lval)
			if !ok {
				c.fail("aggregate assignment from non-lvalue %T", in.RHS)
			}
			lhs := c.lval(in.LV)
			src := c.lval(rhs.LV)
			c.emit(Instr{Op: OpAggCopy, A: lhs, B: src, C: scalarSize(c.lay, in.LV.Ty)})
			return
		}
		r := c.expr(in.RHS)
		c.conv(r, in.RHS.Type(), in.LV.Ty, false)
		c.store(in.LV, r)
	case *cil.Call:
		c.call(in)
	case *cil.Check:
		c.checkInstr(in)
	default:
		c.fail("unknown instruction %T", i)
	}
}

func (c *fnCompiler) call(in *cil.Call) {
	// Arguments land in consecutive registers: every expr's result is the
	// first register allocated for it, so evaluating with no intermediate
	// release packs them at argBase..argBase+n-1.
	argBase := c.top
	argTypes := make([]*ctypes.Type, len(in.Args))
	for i, a := range in.Args {
		r := c.expr(a)
		if r != argBase+int32(i) {
			c.fail("argument register misplacement (%d != %d)", r, argBase+int32(i))
		}
		argTypes[i] = a.Type()
	}
	var retReg int32 = -1
	emitCall := func(op Op, b int32, ci CallInfo) {
		ci.ArgBase = argBase
		ci.NArgs = int32(len(in.Args))
		if in.Result != nil {
			retReg = c.alloc()
		}
		c.emit(Instr{Op: op, A: retReg, B: b, C: c.callI(ci)})
	}
	if fnc, ok := in.Fn.(*cil.FnConst); ok {
		if fn := c.mod.Prog.Lookup(fnc.Name); fn != nil {
			// Convert arguments to the parameter types in place (the tree
			// converts all args after evaluating all of them: identical).
			for i := range in.Args {
				if i < len(fn.Params) {
					c.conv(argBase+int32(i), argTypes[i], fn.Params[i].Type, false)
				}
			}
			emitCall(OpCallFn, -1, CallInfo{Fn: fn})
		} else {
			emitCall(OpCallNamed, -1, CallInfo{Name: fnc.Name})
		}
	} else {
		// Tree order: args first, then the function-pointer expression.
		f := c.expr(in.Fn)
		emitCall(OpCallPtr, f, CallInfo{ArgTypes: argTypes})
	}
	if in.Result != nil {
		ft := in.Fn.Type()
		if ft.IsPointer() {
			ft = ft.Elem
		}
		if ft.Kind == ctypes.Func {
			c.conv(retReg, ft.Fn.Ret, in.Result.Ty, false)
		}
		c.store(in.Result, retReg)
	}
}

func (c *fnCompiler) checkInstr(chk *cil.Check) {
	ci := c.checkI(chk)
	c.emit(Instr{Op: OpCheckBegin, C: ci})
	r := c.expr(chk.Ptr)
	if chk.Kind == cil.CheckStackEscape {
		// The destination lvalue is evaluated only when the value really
		// is a live stack pointer (tree semantics: its loads don't happen
		// otherwise).
		skip := c.emit(Instr{Op: OpStackTest, A: -1, B: r})
		dst := c.lval(chk.DstLV)
		c.emit(Instr{Op: OpStackVerify, B: r, C: dst})
		c.patch(skip)
		return
	}
	c.emit(Instr{Op: OpCheck, B: r, C: ci})
}

// ---- expressions ----

// conv emits a conversion of register r from type `from` to `to` unless
// the tree's convert would be an identity (same static condition).
func (c *fnCompiler) conv(r int32, from, to *ctypes.Type, trusted bool) {
	if from == nil || to == nil || from == to {
		return
	}
	c.emit(Instr{Op: OpConvert, A: r, B: r, C: c.convI(NewConvInfo(c.lay, from, to, trusted))})
}

// expr compiles e; the result register is always the first register
// allocated during its compilation (callers rely on this to pack call
// arguments contiguously).
func (c *fnCompiler) expr(e cil.Expr) int32 {
	switch x := e.(type) {
	case *cil.Const:
		r := c.alloc()
		c.emit(Instr{Op: OpConstInt, A: r, B: c.constI(x.I)})
		return r
	case *cil.FConst:
		r := c.alloc()
		c.emit(Instr{Op: OpConstFloat, A: r, B: c.floatI(x.F)})
		return r
	case *cil.SizeOf:
		r := c.alloc()
		c.emit(Instr{Op: OpConstInt, A: r, B: c.constI(int64(c.lay.Sizeof(x.Of)))})
		return r
	case *cil.StrConst:
		r := c.alloc()
		c.emit(Instr{Op: OpConstStr, A: r, B: c.strI(x.S)})
		return r
	case *cil.FnConst:
		r := c.alloc()
		c.emit(Instr{Op: OpFnAddr, A: r, B: c.nameI(x.Name)})
		return r
	case *cil.Lval:
		// A load never observes the home bounds (they matter only to
		// OpAddrOf), so fully-static sources fuse address and load.
		if x.LV.Var != nil {
			if pOff, _, _, _, ok := c.staticOffsets(x.LV); ok {
				r := c.alloc()
				ty := c.typeI(x.LV.Ty)
				if x.LV.Var.Global {
					c.emit(Instr{Op: OpLoadGlobal, A: r, B: c.globalI(x.LV.Var), C: ty, D: pOff})
					return r
				}
				c.emit(Instr{Op: OpLoadLocal, A: r, B: c.localOff(x.LV.Var) + pOff, C: ty})
				return r
			}
		}
		r := c.addr(x.LV)
		c.emit(Instr{Op: OpLoad, A: r, B: r, C: c.typeI(x.LV.Ty)})
		return r
	case *cil.AddrOf:
		r := c.lval(x.LV)
		kase := int32(AddrPlain)
		tyIdx := int32(-1)
		switch c.lay.KindOf(x.Ty) {
		case qual.Wild:
			kase = AddrWild
		case qual.Rtti:
			if x.Ty.Elem != nil {
				kase = AddrRtti
				tyIdx = c.typeI(x.Ty.Elem)
			}
		}
		if kase == AddrPlain {
			// Every lval path leaves a clean {VPtr, addr, home} value in r,
			// so the plain case's only effect — forcing the kind to VPtr —
			// is a no-op and the opcode is elided.
			return r
		}
		c.emit(Instr{Op: OpAddrOf, A: r, B: r, C: kase, D: tyIdx})
		return r
	case *cil.BinOp:
		bi := BinInfo{Op: x.Op}
		switch x.Op {
		case cil.OpAddPI, cil.OpSubPI:
			bi.Esz = int64(c.lay.Sizeof(x.A.Type().Elem))
		case cil.OpSubPP:
			bi.Esz = int64(c.lay.Sizeof(x.A.Type().Elem))
			if bi.Esz == 0 {
				bi.Esz = 1
			}
		default:
			t := x.Ty
			bi.IsInt = t.Kind == ctypes.Int
			bi.Size = t.Size
			bi.TySigned = t.Signed
			bi.OpSigned = t.Kind != ctypes.Int || t.Signed
			bi.F32 = t.Kind == ctypes.Float && t.Size == 4
			if bi.IsInt {
				bi.IOp = intOpOf(x.Op, bi.OpSigned)
				bi.NSh = normShift(t.Size)
			}
		}
		// The right operand dies at the operation, so a constant or local
		// there folds into it (see fuse).
		a := c.expr(x.A)
		b := c.expr(x.B)
		c.emit(Instr{Op: OpBin, A: a, B: a, C: b, D: c.binI(bi)})
		c.release(b)
		return a
	case *cil.UnOp:
		r := c.expr(x.X)
		u := UnInfo{Op: x.Op}
		if x.Op == cil.OpNeg || x.Op == cil.OpBitNot {
			u.Size = x.Ty.Size
			u.Signed = x.Ty.Signed
		}
		c.emit(Instr{Op: OpUn, A: r, B: r, C: c.unI(u)})
		return r
	case *cil.Cast:
		r := c.expr(x.X)
		c.conv(r, x.X.Type(), x.To, x.Trusted)
		return r
	}
	c.fail("unknown expression %T", e)
	return -1
}

// staticOffsets folds lv's offset chain when every array index is a
// compile-time constant. It returns the total pointer displacement and
// the final home area, both relative to the variable's base address,
// applying evalLval's rules step by step: a Field narrows the home to
// the field's extent, an Index moves the pointer but keeps the home.
// Constant-index evaluation is pure in the tree backend (no counters),
// so folding it away is unobservable.
func (c *fnCompiler) staticOffsets(lv *cil.Lvalue) (pOff, homeOff, homeSize int32, hasField, ok bool) {
	cur := lv.Var.Type
	var p, hOff int64
	hSize := int64(scalarSize(c.lay, cur))
	for _, o := range lv.Offset {
		if o.Field != nil {
			p += int64(c.lay.FieldOff(o.Field))
			hOff = p
			hSize = int64(scalarSize(c.lay, o.Field.Type))
			cur = o.Field.Type
			hasField = true
			continue
		}
		cc, isConst := o.Index.(*cil.Const)
		if !isConst || cur.Kind != ctypes.Array {
			return 0, 0, 0, false, false
		}
		p += cc.I * int64(c.lay.Sizeof(cur.Elem))
		cur = cur.Elem
	}
	if p < math.MinInt32 || p > math.MaxInt32 || hOff < math.MinInt32 || hOff > math.MaxInt32 {
		return 0, 0, 0, false, false
	}
	return int32(p), int32(hOff), int32(hSize), hasField, true
}

// localOff is the frame-slot offset of local v (an internal compiler error
// when the layout has no slot for it).
func (c *fnCompiler) localOff(v *cil.Var) int32 {
	off, ok := c.offsets[v]
	if !ok {
		c.fail("variable %q has no slot", v.Name)
	}
	return int32(off)
}

// lval compiles the address computation of lv: the result register holds
// the address with the home-area bounds in its B/E fields (what evalLval
// returns as (addr, homeB, homeE)). Fully-static chains on locals fold
// to a single OpAddrLocal; on globals to OpAddrGlobal plus at most two
// postfix steps (the global's address is only known at run time).
func (c *fnCompiler) lval(lv *cil.Lvalue) int32 {
	var r int32
	var cur *ctypes.Type
	switch {
	case lv.Var != nil:
		v := lv.Var
		cur = v.Type
		if pOff, homeOff, homeSize, hasField, ok := c.staticOffsets(lv); ok {
			r = c.alloc()
			if !v.Global {
				off := c.localOff(v)
				c.emit(Instr{Op: OpAddrLocal, A: r, B: off + pOff, C: off + homeOff, D: homeSize})
				return r
			}
			c.emit(Instr{Op: OpAddrGlobal, A: r, B: c.globalI(v), C: scalarSize(c.lay, cur)})
			if hasField {
				// One narrowing step to the folded field extent, then a
				// bare displacement for any trailing constant indices.
				c.emit(Instr{Op: OpFieldOff, A: r, B: r, C: homeOff, D: homeSize})
				c.indexStep(r, int64(pOff-homeOff))
			} else {
				c.indexStep(r, int64(pOff))
			}
			return r
		}
		r = c.alloc()
		if v.Global {
			c.emit(Instr{Op: OpAddrGlobal, A: r, B: c.globalI(v), C: scalarSize(c.lay, cur)})
		} else {
			c.emit(Instr{Op: OpAddrLocal, A: r, B: c.localOff(v), C: c.localOff(v), D: scalarSize(c.lay, cur)})
		}
	default:
		r = c.expr(lv.Mem)
		cur = lv.Mem.Type().Elem
		if len(lv.Offset) > 0 && lv.Offset[0].Field != nil {
			// p->f: OpFieldOff rebuilds the home from the field's extent
			// alone, so the bounds OpAddrMem would derive are dead.
			break
		}
		c.emit(Instr{Op: OpAddrMem, A: r, B: r, C: scalarSize(c.lay, cur)})
	}
	for i := 0; i < len(lv.Offset); i++ {
		o := lv.Offset[i]
		if o.Field != nil {
			// Fold a run of consecutive field steps: the intermediate home
			// narrowings are dead — only the last field's extent survives.
			off := int64(c.lay.FieldOff(o.Field))
			cur = o.Field.Type
			for i+1 < len(lv.Offset) && lv.Offset[i+1].Field != nil {
				i++
				off += int64(c.lay.FieldOff(lv.Offset[i].Field))
				cur = lv.Offset[i].Field.Type
			}
			c.emit(Instr{Op: OpFieldOff, A: r, B: r, C: int32(off), D: scalarSize(c.lay, cur)})
			continue
		}
		if cur.Kind != ctypes.Array {
			c.fail("index step on non-array type %s", cur)
		}
		esz := int64(c.lay.Sizeof(cur.Elem))
		if cc, isConst := o.Index.(*cil.Const); isConst {
			c.indexStep(r, cc.I*esz)
		} else {
			idx := c.expr(o.Index)
			c.emit(Instr{Op: OpBin, A: r, B: r, C: idx, D: c.binI(BinInfo{Op: cil.OpAddPI, Esz: esz})})
			c.release(idx)
		}
		cur = cur.Elem
	}
	return r
}

// indexStep displaces address register r by disp bytes, keeping its home
// area: an index step is pointer arithmetic on the address (evalLval's
// Index case), so it compiles to OpAddPI with a unit element size.
func (c *fnCompiler) indexStep(r int32, disp int64) {
	if disp != 0 {
		k := c.alloc()
		c.emit(Instr{Op: OpConstInt, A: k, B: c.constI(disp)})
		c.emit(Instr{Op: OpBin, A: r, B: r, C: k, D: c.binI(BinInfo{Op: cil.OpAddPI, Esz: 1})})
		c.release(k)
	}
}

// addr compiles the address lv designates for a load or store. A plain *p
// needs no OpAddrMem: the bounds it would compute are dead for an access,
// so the access goes straight through the pointer value.
func (c *fnCompiler) addr(lv *cil.Lvalue) int32 {
	if lv.Var == nil && len(lv.Offset) == 0 {
		return c.expr(lv.Mem)
	}
	return c.lval(lv)
}

// store assigns register r to lv, fusing fully-static local and global
// destinations into single opcodes (the address value is never
// materialized; onStore fires inside Machine.store either way).
func (c *fnCompiler) store(lv *cil.Lvalue, r int32) {
	if lv.Var != nil {
		if pOff, _, _, _, ok := c.staticOffsets(lv); ok {
			ty := c.typeI(lv.Ty)
			if lv.Var.Global {
				c.emit(Instr{Op: OpStoreGlobal, A: c.globalI(lv.Var), B: r, C: ty, D: pOff})
				return
			}
			// r dies at the store: an assignment conversion into it fuses.
			c.emit(Instr{Op: OpStoreLocal, A: c.localOff(lv.Var) + pOff, B: r, C: ty})
			return
		}
	}
	addr := c.addr(lv)
	c.emit(Instr{Op: OpStore, A: addr, B: r, C: c.typeI(lv.Ty)})
}
