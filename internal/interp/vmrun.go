package interp

// The bytecode executor: one dense dispatch loop over vm.Instr. Semantics
// are defined by the tree walker in interp.go/checks.go — every opcode
// here mirrors one of its evaluation steps exactly, in the same order,
// with the same trap messages, so both backends produce bit-identical
// observable results (stdout, counters, site tables, trap provenance).
// The differential fuzzer (diff_fuzz_test.go) and the backend golden test
// (backend_test.go) enforce the equivalence.

import (
	"math"

	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/flight"
	"gocured/internal/qual"
	"gocured/internal/rtti"
	"gocured/internal/vm"
)

// vmCall invokes one compiled function with argument Values (main, an
// indirect call, a builtin's callback): push the (identically laid out)
// stack frame, spill the arguments into their parameter slots, and run
// the dispatch loop. Direct calls spill straight from the caller's
// register banks instead (OpCallFn).
func (m *Machine) vmCall(fc *vm.FuncCode, args []Value) Value {
	fr := m.vmEnter(fc)
	for i := range fc.Fn.Params {
		if i < len(args) {
			ti := fc.ParamTys[i]
			m.vmStore(fr.base+fc.ParamOffs[i], &fc.TyDescs[ti], fc.Types[ti], fc.TySizes[ti], args[i])
		}
	}
	return m.vmRun(fr, fc)
}

// vmEnter pushes fc's stack frame and takes a pooled activation record
// with room for its registers.
func (m *Machine) vmEnter(fc *vm.FuncCode) *frame {
	blk, err := m.mem.PushFrame(fc.FrameSize, fc.Fn.Name)
	m.check(err)
	return m.getFrame(fc.Fn, blk.Addr, nil, fc.NumRegs)
}

// vmRun runs fc in the entered frame fr, whose parameters are spilled.
// The bracketing — flight EvCall/EvRet, frames for trap attribution,
// frame pooling — matches call().
func (m *Machine) vmRun(fr *frame, fc *vm.FuncCode) Value {
	if m.rec != nil {
		m.rec.Record(flight.Event{TS: m.cnt.Cost, Kind: flight.EvCall, Name: fc.Fn.Name})
	}
	m.frames = append(m.frames, fr)
	defer func() {
		if m.rec != nil {
			m.rec.Record(flight.Event{TS: m.cnt.Cost, Kind: flight.EvRet, Name: fc.Fn.Name})
		}
		m.frames = m.frames[:len(m.frames)-1]
		m.mem.PopFrame()
		m.putFrame(fr)
	}()
	return m.vmExec(fr, fc)
}

// vmArgs copies the argument registers of call site ci onto the
// machine's argument stack and returns them as the []Value a builtin or
// callPtr takes; the caller pops them with m.argStack[:base]. The stack
// is shared by nested calls (a builtin calling back into compiled code),
// which push above the arguments still in use.
func (m *Machine) vmArgs(rb *banks, ci *vm.CallInfo) (args []Value, base int) {
	base = len(m.argStack)
	for i := int32(0); i < ci.NArgs; i++ {
		m.argStack = append(m.argStack, rb.get(ci.ArgBase+i))
	}
	return m.argStack[base:len(m.argStack):len(m.argStack)], base
}

func (m *Machine) vmExec(fr *frame, fc *vm.FuncCode) Value {
	code := fc.Code
	rb := &fr.regs
	d, k, mt := rb.d, rb.k, rb.mt
	pc := 0
	for pc < len(code) {
		in := &code[pc]
		pc++
		switch in.Op {
		case vm.OpStep:
			// Inlined step() — the hottest opcode by far.
			m.cnt.Steps++
			m.cnt.Cost++
			if m.cnt.Steps > m.stepLimit {
				m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
			}
			if m.prof != nil {
				m.sampleStep()
			}
			if in.A >= 0 {
				// After the step charge, like the tree: the profiler samples
				// inside step and attributes to the previous statement's line.
				m.curPos = fc.Poss[in.A]
			}
		case vm.OpBackEdge:
			// Inlined backEdge(): counts against the limit, no cost.
			m.cnt.Steps++
			if m.cnt.Steps > m.stepLimit {
				m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
			}
		case vm.OpJump:
			pc = int(in.A)
		case vm.OpJumpBack:
			// Fused loop tail: the head's back-edge charge, then the jump
			// (landing just past the head's OpBackEdge).
			m.cnt.Steps++
			if m.cnt.Steps > m.stepLimit {
				m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
			}
			pc = int(in.A)
		case vm.OpJumpFalse:
			if !rb.truthy(in.B) {
				pc = int(in.A)
			}
		case vm.OpJumpFalseI:
			if d[in.B] == 0 {
				pc = int(in.A)
			}
		case vm.OpJumpEq:
			if rb.asInt(in.B) == fc.Consts[in.C] {
				pc = int(in.A)
			}
		case vm.OpJumpBinFalseI:
			if m.intBin(&fc.Bins[in.D], d[in.B], d[in.C]) == 0 {
				pc = int(in.A)
			}
		case vm.OpJumpBinConstFalseI:
			if m.intBin(&fc.Bins[in.D], d[in.B], fc.Consts[in.C]) == 0 {
				pc = int(in.A)
			}
		case vm.OpReturn:
			if in.A < 0 {
				return Value{}
			}
			return rb.get(in.A)

		case vm.OpConstInt:
			d[in.A], k[in.A] = fc.Consts[in.B], VInt
		case vm.OpConstFloat:
			d[in.A], k[in.A] = int64(math.Float64bits(fc.Floats[in.B])), VFloat
		case vm.OpConstStr:
			rb.set(in.A, m.internString(fc.Strs[in.B]))
		case vm.OpFnAddr:
			rb.setPtr(in.A, m.funcAddrOf(fc.Names[in.B]), 0, 0, nil)

		case vm.OpAddrLocal:
			hb := fr.base + uint32(in.C)
			d[in.A], k[in.A] = int64(fr.base+uint32(in.B)), VPtr
			mt[in.A] = regMeta{b: hb, e: hb + uint32(in.D)}
		case vm.OpAddrGlobal:
			a := m.vmGlobals[in.B]
			if a == 0 {
				m.trapf("internal", "global %q has no storage", m.code.Globals[in.B].Name)
			}
			d[in.A], k[in.A] = int64(a), VPtr
			mt[in.A] = regMeta{b: a, e: a + uint32(in.C)}
		case vm.OpAddrMem:
			p, b, e, _ := rb.ptrParts(in.B)
			if b == 0 || e == 0 {
				b = p
				e = p + uint32(in.C)
			}
			rb.setPtr(in.A, p, b, e, nil)
		case vm.OpFieldOff:
			a := rb.ptr(in.B) + uint32(in.C)
			rb.setPtr(in.A, a, a, a+uint32(in.D), nil)
		case vm.OpAddrOf:
			v := rb.get(in.B)
			v.K = VPtr
			switch in.C {
			case vm.AddrWild:
				if blk := m.mem.BlockAt(v.P); blk != nil {
					blk.MakeWild()
					v.B = blk.Addr
				}
			case vm.AddrRtti:
				if m.hier != nil {
					v.RT = m.hier.Of(fc.Types[in.D])
				}
			}
			rb.set(in.A, v)

		case vm.OpLoad:
			addr := rb.ptr(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			m.vmLoadReg(addr, &fc.TyDescs[in.C], fc.Types[in.C], rb, in.A)
		case vm.OpLoadI:
			addr := uint32(d[in.B])
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			d[in.A], k[in.A] = m.vmLoadInt(addr, &fc.TyDescs[in.C]), VInt
		case vm.OpStore:
			m.vmStoreReg(rb.ptr(in.A), &fc.TyDescs[in.C], fc.Types[in.C], fc.TySizes[in.C], rb, in.B)
		case vm.OpStoreI:
			m.vmStoreInt(uint32(d[in.A]), &fc.TyDescs[in.C], fc.TySizes[in.C], d[in.B])
		case vm.OpLoadLocal:
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			m.vmLoadReg(addr, &fc.TyDescs[in.C], fc.Types[in.C], rb, in.A)
		case vm.OpLoadLocalI:
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			d[in.A], k[in.A] = m.vmLoadInt(addr, &fc.TyDescs[in.C]), VInt
		case vm.OpStoreLocal:
			m.vmStoreReg(fr.base+uint32(in.A), &fc.TyDescs[in.C], fc.Types[in.C], fc.TySizes[in.C], rb, in.B)
		case vm.OpStoreLocalI:
			m.vmStoreInt(fr.base+uint32(in.A), &fc.TyDescs[in.C], fc.TySizes[in.C], d[in.B])
		case vm.OpLoadField:
			addr := rb.ptr(in.B) + uint32(in.C)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.D]))
			}
			m.vmLoadReg(addr, &fc.TyDescs[in.D], fc.Types[in.D], rb, in.A)
		case vm.OpLoadFieldI:
			addr := uint32(d[in.B]) + uint32(in.C)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.D]))
			}
			d[in.A], k[in.A] = m.vmLoadInt(addr, &fc.TyDescs[in.D]), VInt
		case vm.OpStoreField:
			m.vmStoreReg(rb.ptr(in.A)+uint32(in.D), &fc.TyDescs[in.C], fc.Types[in.C], fc.TySizes[in.C], rb, in.B)
		case vm.OpStoreFieldI:
			m.vmStoreInt(uint32(d[in.A])+uint32(in.D), &fc.TyDescs[in.C], fc.TySizes[in.C], d[in.B])
		case vm.OpLoadGlobal:
			g := m.vmGlobals[in.B]
			if g == 0 {
				m.trapf("internal", "global %q has no storage", m.code.Globals[in.B].Name)
			}
			addr := g + uint32(in.D)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			m.vmLoadReg(addr, &fc.TyDescs[in.C], fc.Types[in.C], rb, in.A)
		case vm.OpStoreGlobal:
			g := m.vmGlobals[in.A]
			if g == 0 {
				m.trapf("internal", "global %q has no storage", m.code.Globals[in.A].Name)
			}
			m.vmStoreReg(g+uint32(in.D), &fc.TyDescs[in.C], fc.Types[in.C], fc.TySizes[in.C], rb, in.B)
		case vm.OpAggCopy:
			m.check(m.mem.Copy(rb.ptr(in.A), rb.ptr(in.B), uint32(in.C)))

		case vm.OpConvert:
			rb.set(in.A, m.convertVia(rb.get(in.B), &fc.Convs[in.C]))
		case vm.OpConvertI:
			cv := &fc.Convs[in.C]
			d[in.A], k[in.A] = normSh(d[in.B], cv.IntSh, cv.IntSigned), VInt
		case vm.OpBin:
			x, y := rb.get(in.B), rb.get(in.C)
			rb.set(in.A, m.vmBin(&fc.Bins[in.D], &x, &y))
		case vm.OpBinI:
			d[in.A], k[in.A] = m.intBin(&fc.Bins[in.D], d[in.B], d[in.C]), VInt
		case vm.OpBinConstI:
			d[in.A], k[in.A] = m.intBin(&fc.Bins[in.D], d[in.B], fc.Consts[in.C]), VInt
		case vm.OpPtrAdd:
			// In place: pointer arithmetic keeps the pointer's kind and
			// metadata (evalBinOp's out := a), so only the address moves.
			d[in.A] = int64(uint32(d[in.A] + d[in.C]*fc.Bins[in.D].Esz))
		case vm.OpPtrAddConst:
			d[in.A] = int64(uint32(d[in.A] + fc.Consts[in.C]))
		case vm.OpUn:
			rb.set(in.A, m.vmUn(&fc.Uns[in.C], rb.get(in.B)))

		case vm.OpCallFn:
			// Spill the arguments straight from this frame's banks into the
			// callee's parameter slots (already converted by the caller).
			ci := &fc.Calls[in.C]
			callee := ci.FC
			nf := m.vmEnter(callee)
			for i := range callee.Fn.Params {
				if int32(i) < ci.NArgs {
					ti := callee.ParamTys[i]
					m.vmStoreReg(nf.base+callee.ParamOffs[i], &callee.TyDescs[ti], callee.Types[ti],
						callee.TySizes[ti], rb, ci.ArgBase+int32(i))
				}
			}
			ret := m.vmRun(nf, callee)
			if in.A >= 0 {
				rb.set(in.A, ret)
			}
		case vm.OpCallNamed:
			ci := &fc.Calls[in.C]
			bf, ok := m.builtins[ci.Name]
			if !ok {
				m.trapf("link", "call to undefined function %q", ci.Name)
			}
			m.recEvent(flight.EvWrapper, ci.Name, 0)
			args, base := m.vmArgs(rb, ci)
			ret := bf(m, args)
			m.argStack = m.argStack[:base]
			if in.A >= 0 {
				rb.set(in.A, ret)
			}
		case vm.OpCallPtr:
			ci := &fc.Calls[in.C]
			args, base := m.vmArgs(rb, ci)
			ret := m.callPtr(rb.ptr(in.B), args, ci.ArgTypes)
			m.argStack = m.argStack[:base]
			if in.A >= 0 {
				rb.set(in.A, ret)
			}

		case vm.OpCheckBegin:
			m.checkEnter(fc.Checks[in.C])
		case vm.OpCheck:
			m.vmCheck(fc.Checks[in.C], rb, in.B)
			m.curCheck = nil
		case vm.OpStackTest:
			v := rb.get(in.B)
			if v.K != VPtr || v.P == 0 || !m.mem.InStack(v.P) {
				m.curCheck = nil
				pc = int(in.A)
			}
		case vm.OpStackVerify:
			m.stackEscapeVerify(rb.get(in.B), rb.ptr(in.C))
			m.curCheck = nil

		// Superinstructions: each is its two constituents in sequence
		// (dead intermediate register writes elided).
		case vm.OpJumpTrue:
			if rb.truthy(in.B) {
				pc = int(in.A)
			}
		case vm.OpJumpTrueI:
			if d[in.B] != 0 {
				pc = int(in.A)
			}
		case vm.OpLoadConv:
			addr := rb.ptr(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			lv := m.vmLoad(addr, &fc.TyDescs[in.C], fc.Types[in.C])
			rb.set(in.A, m.convertVia(lv, &fc.Convs[in.D]))
		case vm.OpLoadConvI:
			addr := rb.ptr(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			i := m.vmLoadInt(addr, &fc.TyDescs[in.C])
			cv := &fc.Convs[in.D]
			d[in.A], k[in.A] = normSh(i, cv.IntSh, cv.IntSigned), VInt
		case vm.OpStepLoadLocal, vm.OpStepLoadLocalI:
			m.cnt.Steps++
			m.cnt.Cost++
			if m.cnt.Steps > m.stepLimit {
				m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
			}
			if m.prof != nil {
				m.sampleStep()
			}
			if in.D >= 0 {
				m.curPos = fc.Poss[in.D]
			}
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			if in.Op == vm.OpStepLoadLocalI {
				d[in.A], k[in.A] = m.vmLoadInt(addr, &fc.TyDescs[in.C]), VInt
			} else {
				m.vmLoadReg(addr, &fc.TyDescs[in.C], fc.Types[in.C], rb, in.A)
			}
		case vm.OpStoreLocalStep, vm.OpStoreLocalStepI:
			if in.Op == vm.OpStoreLocalStepI {
				m.vmStoreInt(fr.base+uint32(in.A), &fc.TyDescs[in.C], fc.TySizes[in.C], d[in.B])
			} else {
				m.vmStoreReg(fr.base+uint32(in.A), &fc.TyDescs[in.C], fc.Types[in.C], fc.TySizes[in.C], rb, in.B)
			}
			m.cnt.Steps++
			m.cnt.Cost++
			if m.cnt.Steps > m.stepLimit {
				m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
			}
			if m.prof != nil {
				m.sampleStep()
			}
			if in.D >= 0 {
				m.curPos = fc.Poss[in.D]
			}
		case vm.OpConvStoreLocal:
			m.vmStore(fr.base+uint32(in.A), &fc.TyDescs[in.D], fc.Types[in.D], fc.TySizes[in.D],
				m.convertVia(rb.get(in.B), &fc.Convs[in.C]))
		case vm.OpJumpFalseStepI:
			if d[in.B] == 0 {
				pc = int(in.A)
			} else {
				m.cnt.Steps++
				m.cnt.Cost++
				if m.cnt.Steps > m.stepLimit {
					m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
				}
				if m.prof != nil {
					m.sampleStep()
				}
				if in.C >= 0 {
					m.curPos = fc.Poss[in.C]
				}
			}
		case vm.OpLoadLocalBinI:
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			d[in.A] = m.intBin(&fc.Bins[in.D], d[in.A], m.vmLoadInt(addr, &fc.TyDescs[in.C]))
		case vm.OpLoadLocalPtrAdd:
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			d[in.A] = int64(uint32(d[in.A] + m.vmLoadInt(addr, &fc.TyDescs[in.C])*fc.Bins[in.D].Esz))
		case vm.OpLoadLocalPtrAddConst:
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			m.vmLoadReg(addr, &fc.TyDescs[in.C], fc.Types[in.C], rb, in.A)
			d[in.A] = int64(uint32(d[in.A] + fc.Consts[in.D]))
		case vm.OpLoadLocalBinConstI:
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			bi := &fc.Bins[in.D]
			d[in.A], k[in.A] = m.intBin(bi, m.vmLoadInt(addr, &fc.TyDescs[in.C]), bi.CI), VInt
		case vm.OpBinAddrMem:
			bi := &fc.Bins[in.D]
			x, y := rb.get(in.B), rb.get(in.C)
			v := m.vmBin(bi, &x, &y)
			b, e := v.B, v.E
			if b == 0 || e == 0 {
				b = v.P
				e = v.P + uint32(bi.MemSize)
			}
			rb.setPtr(in.A, v.P, b, e, nil)
		case vm.OpBinCheck:
			x, y := rb.get(in.B), rb.get(in.C)
			v := m.vmBin(&fc.Bins[in.D], &x, &y)
			m.checkVerdict(fc.Checks[in.A], v)
			m.curCheck = nil
		case vm.OpCheckStep:
			m.vmCheck(fc.Checks[in.C], rb, in.B)
			m.curCheck = nil
			m.cnt.Steps++
			m.cnt.Cost++
			if m.cnt.Steps > m.stepLimit {
				m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
			}
			if m.prof != nil {
				m.sampleStep()
			}
			if in.D >= 0 {
				m.curPos = fc.Poss[in.D]
			}
		case vm.OpLoadLocal2PtrAdd:
			bi := &fc.Bins[in.D]
			a1 := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, a1, uint32(fc.TySizes[bi.LTy]))
			}
			m.vmLoadReg(a1, &fc.TyDescs[bi.LTy], fc.Types[bi.LTy], rb, in.A)
			a2 := fr.base + uint32(in.C)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, a2, uint32(fc.TySizes[bi.RTy]))
			}
			d[in.A] = int64(uint32(d[in.A] + m.vmLoadInt(a2, &fc.TyDescs[bi.RTy])*bi.Esz))
		case vm.OpLoadLocal2BinI:
			bi := &fc.Bins[in.D]
			a1 := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, a1, uint32(fc.TySizes[bi.LTy]))
			}
			x := m.vmLoadInt(a1, &fc.TyDescs[bi.LTy])
			a2 := fr.base + uint32(in.C)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, a2, uint32(fc.TySizes[bi.RTy]))
			}
			d[in.A], k[in.A] = m.intBin(bi, x, m.vmLoadInt(a2, &fc.TyDescs[bi.RTy])), VInt
		case vm.OpStepLoadLocalBinConstI:
			m.cnt.Steps++
			m.cnt.Cost++
			if m.cnt.Steps > m.stepLimit {
				m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
			}
			if m.prof != nil {
				m.sampleStep()
			}
			if in.D >= 0 {
				m.curPos = fc.Poss[in.D]
			}
			bi := &fc.Bins[in.C]
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[bi.LTy]))
			}
			d[in.A], k[in.A] = m.intBin(bi, m.vmLoadInt(addr, &fc.TyDescs[bi.LTy]), bi.CI), VInt
		case vm.OpStepCheckBegin:
			m.cnt.Steps++
			m.cnt.Cost++
			if m.cnt.Steps > m.stepLimit {
				m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
			}
			if m.prof != nil {
				m.sampleStep()
			}
			if in.D >= 0 {
				m.curPos = fc.Poss[in.D]
			}
			m.checkEnter(fc.Checks[in.C])

		default:
			m.trapf("internal", "unknown opcode %s", in.Op)
		}
	}
	return Value{}
}

// vmCheck is checkVerdict on register r. The checks the corpus runs most
// — CheckNull and CheckSeq on a VPtr — read the data and metadata banks
// directly; every other check gets the register as a Value.
func (m *Machine) vmCheck(c *cil.Check, rb *banks, r int32) {
	if rb.k[r] == VPtr {
		switch c.Kind {
		case cil.CheckNull:
			m.nullVerdict(uint32(rb.d[r]))
			return
		case cil.CheckSeq:
			mt := &rb.mt[r]
			m.seqVerdict(c, uint32(rb.d[r]), mt.b, mt.e)
			return
		}
	}
	m.checkVerdict(c, rb.get(r))
}

// normSh truncates i to the width the compile-time shift sh encodes
// (BinInfo.NSh, ConvInfo.IntSh) and re-extends it: normInt with the size
// switch resolved when the VM compiles.
func normSh(i int64, sh uint8, signed bool) int64 {
	if signed {
		return i << sh >> sh
	}
	return int64(uint64(i<<sh) >> sh)
}

// intBin runs bi.IOp on two VInt operands: vmBin's integer path with the
// operator and its signedness resolved at compile time.
func (m *Machine) intBin(bi *vm.BinInfo, x, y int64) int64 {
	var r int64
	switch bi.IOp {
	case vm.IAdd:
		r = x + y
	case vm.ISub:
		r = x - y
	case vm.IMul:
		r = x * y
	case vm.IDivS:
		if y == 0 {
			m.trapf("arith", "division by zero")
		}
		r = x / y
	case vm.IDivU:
		if y == 0 {
			m.trapf("arith", "division by zero")
		}
		r = int64(uint64(uint32(x)) / uint64(uint32(y)))
	case vm.IRemS:
		if y == 0 {
			m.trapf("arith", "modulo by zero")
		}
		r = x % y
	case vm.IRemU:
		if y == 0 {
			m.trapf("arith", "modulo by zero")
		}
		r = int64(uint64(uint32(x)) % uint64(uint32(y)))
	case vm.IShl:
		r = x << uint(y&63)
	case vm.IShrS:
		r = x >> uint(y&63)
	case vm.IShrU:
		r = int64(uint32(x) >> uint(y&31))
	case vm.IAnd:
		r = x & y
	case vm.IOr:
		r = x | y
	case vm.IXor:
		r = x ^ y
	case vm.IEq:
		return b2i(x == y)
	case vm.INe:
		return b2i(x != y)
	case vm.ILt:
		return b2i(x < y)
	case vm.IGt:
		return b2i(x > y)
	case vm.ILe:
		return b2i(x <= y)
	case vm.IGe:
		return b2i(x >= y)
	default:
		m.trapf("internal", "unknown integer operator %d", bi.IOp)
	}
	return normSh(r, bi.NSh, bi.TySigned)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// vmLoadInt reads an integer of descriptor d at addr: the int arm of
// vmLoad, with the same memory read and trap.
func (m *Machine) vmLoadInt(addr uint32, d *vm.TyDesc) int64 {
	if i, ok := m.mem.LoadInt(addr, int(d.Size), d.Signed); ok {
		return i
	}
	// The fast path refused: ReadInt builds the same trap the tree's
	// load does.
	_, err := m.mem.ReadInt(addr, int(d.Size), d.Signed)
	m.check(err)
	return 0
}

// vmStoreInt writes integer i at addr: the int arm of vmStore, hook
// included.
func (m *Machine) vmStoreInt(addr uint32, d *vm.TyDesc, hook int32, i int64) {
	if !m.mem.StoreInt(addr, int(d.Size), i) {
		m.check(m.mem.WriteInt(addr, int(d.Size), i))
	}
	if m.policyShadow != nil {
		m.policyShadow.onStore(m, addr, uint32(hook))
	}
}

// vmLoad is Machine.load with the per-access type interrogation — the
// kind switch, the split-representation lookup, the qualifier-graph
// query — resolved at compile time into d. The memory reads, costs, and
// trap messages are identical to value.go's load/loadPtr.
func (m *Machine) vmLoad(addr uint32, d *vm.TyDesc, t *ctypes.Type) Value {
	switch d.Kind {
	case ctypes.Int:
		return IntVal(m.vmLoadInt(addr, d))
	case ctypes.Float:
		f, err := m.mem.ReadFloat(addr, int(d.Size))
		m.check(err)
		return FloatVal(f)
	case ctypes.Ptr:
		p, b, e, rt := m.vmLoadPtr(addr, d)
		return Value{K: VPtr, P: p, B: b, E: e, RT: rt}
	default:
		m.trapf("access", "cannot load value of type %s", t)
		return Value{}
	}
}

// vmLoadReg is vmLoad into register r.
func (m *Machine) vmLoadReg(addr uint32, d *vm.TyDesc, t *ctypes.Type, rb *banks, r int32) {
	switch d.Kind {
	case ctypes.Int:
		rb.d[r], rb.k[r] = m.vmLoadInt(addr, d), VInt
	case ctypes.Float:
		f, err := m.mem.ReadFloat(addr, int(d.Size))
		m.check(err)
		rb.d[r], rb.k[r] = int64(math.Float64bits(f)), VFloat
	case ctypes.Ptr:
		p, b, e, rt := m.vmLoadPtr(addr, d)
		rb.setPtr(r, p, b, e, rt)
	default:
		m.trapf("access", "cannot load value of type %s", t)
	}
}

// vmLoadPtr reads a pointer of descriptor d at addr and returns its
// address, bounds and run-time type.
func (m *Machine) vmLoadPtr(addr uint32, d *vm.TyDesc) (p, b, e uint32, rt *rtti.Node) {
	var err error
	if d.Split {
		p, err = m.mem.ReadWord(addr)
		m.check(err)
		meta, ok := m.shadowMeta[addr]
		if ok {
			b, e, rt = meta.b, meta.e, m.nodeByID(meta.rt)
		}
		m.splitWork(ok)
		return p, b, e, rt
	}
	switch d.PKind {
	case qual.Seq:
		p, err = m.mem.ReadWord(addr)
		m.check(err)
		b, err = m.mem.ReadWord(addr + 4)
		m.check(err)
		e, err = m.mem.ReadWord(addr + 8)
		m.check(err)
	case qual.Wild:
		b, err = m.mem.ReadWord(addr)
		m.check(err)
		p, err = m.mem.ReadWord(addr + 4)
		m.check(err)
	case qual.Rtti:
		p, err = m.mem.ReadWord(addr)
		m.check(err)
		id, err := m.mem.ReadWord(addr + 4)
		m.check(err)
		rt = m.nodeByID(int(id))
	default:
		p, err = m.mem.ReadWord(addr)
		m.check(err)
	}
	return p, b, e, rt
}

// vmStore is Machine.store/storePtr over a compile-time descriptor; hook
// is the precomputed Sizeof for the shadow-policy callback.
func (m *Machine) vmStore(addr uint32, d *vm.TyDesc, t *ctypes.Type, hook int32, v Value) {
	switch d.Kind {
	case ctypes.Int:
		m.vmStoreInt(addr, d, hook, v.AsInt())
		return
	case ctypes.Float:
		m.check(m.mem.WriteFloat(addr, int(d.Size), v.AsFloat()))
	case ctypes.Ptr:
		m.vmStorePtr(addr, d, v.P, v.B, v.E, v.RT)
	default:
		m.trapf("access", "cannot store value of type %s", t)
	}
	if m.policyShadow != nil {
		m.policyShadow.onStore(m, addr, uint32(hook))
	}
}

// vmStoreReg is vmStore of register r.
func (m *Machine) vmStoreReg(addr uint32, d *vm.TyDesc, t *ctypes.Type, hook int32, rb *banks, r int32) {
	switch d.Kind {
	case ctypes.Int:
		m.vmStoreInt(addr, d, hook, rb.asInt(r))
		return
	case ctypes.Float:
		m.check(m.mem.WriteFloat(addr, int(d.Size), rb.asFloat(r)))
	case ctypes.Ptr:
		p, b, e, rt := rb.ptrParts(r)
		m.vmStorePtr(addr, d, p, b, e, rt)
	default:
		m.trapf("access", "cannot store value of type %s", t)
	}
	if m.policyShadow != nil {
		m.policyShadow.onStore(m, addr, uint32(hook))
	}
}

// vmStorePtr stores a pointer with address p, bounds [b, e) and run-time
// type rt in the representation descriptor d selects.
func (m *Machine) vmStorePtr(addr uint32, d *vm.TyDesc, p, b, e uint32, rt *rtti.Node) {
	if d.Split {
		m.check(m.mem.WriteWord(addr, p))
		switch d.PKind {
		case qual.Seq, qual.Rtti, qual.Wild:
			if b != 0 || e != 0 || rt != nil {
				m.shadowMeta[addr] = metaEntry{b: b, e: e, rt: m.idOfNode(rt)}
				m.splitWork(true)
			} else {
				_, had := m.shadowMeta[addr]
				if had {
					delete(m.shadowMeta, addr)
				}
				m.splitWork(had)
			}
		}
		return
	}
	switch d.PKind {
	case qual.Seq:
		m.check(m.mem.WriteWord(addr, p))
		m.check(m.mem.WriteWord(addr+4, b))
		m.check(m.mem.WriteWord(addr+8, e))
	case qual.Wild:
		m.check(m.mem.WriteWord(addr, b))
		m.check(m.mem.WriteWord(addr+4, p))
		if blk := m.mem.BlockAt(addr); blk != nil && blk.Wild {
			blk.SetTag(addr, 1)
			blk.SetTag(addr+4, 0)
		}
	case qual.Rtti:
		m.check(m.mem.WriteWord(addr, p))
		m.check(m.mem.WriteWord(addr+4, uint32(m.idOfNode(rt))))
	default:
		m.check(m.mem.WriteWord(addr, p))
		if blk := m.mem.BlockAt(addr); blk != nil && blk.Wild {
			blk.SetTag(addr, 0)
		}
	}
}

// vmBin mirrors evalBinOp over precomputed operand facts. The operands
// are passed by pointer (they are read-only): two Values exceed Go's
// register-passing budget and would spill to the stack on every call.
// Two VInt operands of an integer-typed operation run its IntOp, the
// operation the integer opcodes run; every other operand mix — pointers,
// floats — takes the tree walker's path.
func (m *Machine) vmBin(bi *vm.BinInfo, a, b *Value) Value {
	if a.K == VInt && b.K == VInt && bi.IOp != vm.INone {
		return IntVal(m.intBin(bi, a.I, b.I))
	}
	switch bi.Op {
	case cil.OpAddPI, cil.OpSubPI:
		idx := b.AsInt()
		if bi.Op == cil.OpSubPI {
			idx = -idx
		}
		out := *a
		out.P = uint32(int64(a.P) + idx*bi.Esz)
		return out
	case cil.OpSubPP:
		return IntVal((int64(a.P) - int64(b.P)) / bi.Esz)
	}

	if a.K == VFloat || b.K == VFloat {
		af, bf := a.AsFloat(), b.AsFloat()
		switch bi.Op {
		case cil.OpAdd:
			return m.vmFret(bi, af+bf)
		case cil.OpSub:
			return m.vmFret(bi, af-bf)
		case cil.OpMul:
			return m.vmFret(bi, af*bf)
		case cil.OpDiv:
			return m.vmFret(bi, af/bf)
		case cil.OpLt:
			return boolVal(af < bf)
		case cil.OpGt:
			return boolVal(af > bf)
		case cil.OpLe:
			return boolVal(af <= bf)
		case cil.OpGe:
			return boolVal(af >= bf)
		case cil.OpEq:
			return boolVal(af == bf)
		case cil.OpNe:
			return boolVal(af != bf)
		}
		m.trapf("arith", "bad float operator %s", bi.Op)
	}

	ai, bv := a.AsInt(), b.AsInt()
	signed := bi.OpSigned
	norm := func(v int64) Value {
		if bi.IsInt {
			return IntVal(normInt(v, bi.Size, bi.TySigned))
		}
		return IntVal(v)
	}
	switch bi.Op {
	case cil.OpAdd:
		return norm(ai + bv)
	case cil.OpSub:
		return norm(ai - bv)
	case cil.OpMul:
		return norm(ai * bv)
	case cil.OpDiv:
		if bv == 0 {
			m.trapf("arith", "division by zero")
		}
		if !signed {
			return norm(int64(uint64(uint32(ai)) / uint64(uint32(bv))))
		}
		return norm(ai / bv)
	case cil.OpRem:
		if bv == 0 {
			m.trapf("arith", "modulo by zero")
		}
		if !signed {
			return norm(int64(uint64(uint32(ai)) % uint64(uint32(bv))))
		}
		return norm(ai % bv)
	case cil.OpShl:
		return norm(ai << uint(bv&63))
	case cil.OpShr:
		if !signed {
			return norm(int64(uint32(ai) >> uint(bv&31)))
		}
		return norm(ai >> uint(bv&63))
	case cil.OpBitAnd:
		return norm(ai & bv)
	case cil.OpBitOr:
		return norm(ai | bv)
	case cil.OpBitXor:
		return norm(ai ^ bv)
	case cil.OpLt:
		return boolVal(cmpInts(*a, *b, signed) < 0)
	case cil.OpGt:
		return boolVal(cmpInts(*a, *b, signed) > 0)
	case cil.OpLe:
		return boolVal(cmpInts(*a, *b, signed) <= 0)
	case cil.OpGe:
		return boolVal(cmpInts(*a, *b, signed) >= 0)
	case cil.OpEq:
		return boolVal(ai == bv)
	case cil.OpNe:
		return boolVal(ai != bv)
	}
	m.trapf("arith", "bad operator %s", bi.Op)
	return Value{}
}

func (m *Machine) vmFret(bi *vm.BinInfo, f float64) Value {
	if bi.F32 {
		return FloatVal(float64(float32(f)))
	}
	return FloatVal(f)
}

// vmUn mirrors the UnOp arm of evalExpr.
func (m *Machine) vmUn(u *vm.UnInfo, v Value) Value {
	switch u.Op {
	case cil.OpNeg:
		if v.K == VFloat {
			return FloatVal(-v.F)
		}
		return IntVal(normInt(-v.AsInt(), u.Size, u.Signed))
	case cil.OpNot:
		if v.Truthy() {
			return IntVal(0)
		}
		return IntVal(1)
	case cil.OpBitNot:
		return IntVal(normInt(^v.AsInt(), u.Size, u.Signed))
	}
	m.trapf("internal", "unknown unary operator %s", u.Op)
	return Value{}
}
