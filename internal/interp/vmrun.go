package interp

// The bytecode executor: one dense dispatch loop over vm.Instr. Semantics
// are defined by the tree walker in interp.go/checks.go — every opcode
// here mirrors one of its evaluation steps exactly, in the same order,
// with the same trap messages, so both backends produce bit-identical
// observable results (stdout, counters, site tables, trap provenance).
// The differential fuzzer (diff_fuzz_test.go) and the backend golden test
// (backend_test.go) enforce the equivalence.

import (
	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/flight"
	"gocured/internal/qual"
	"gocured/internal/vm"
)

// vmCall invokes one compiled function: push the (identically laid out)
// stack frame, spill converted arguments into parameter slots, and run
// the dispatch loop. The bracketing — PushFrame, flight EvCall/EvRet,
// frames for trap attribution, frame pooling — matches call().
func (m *Machine) vmCall(fc *vm.FuncCode, args []Value) Value {
	blk, err := m.mem.PushFrame(fc.FrameSize, fc.Fn.Name)
	m.check(err)
	fr := m.getFrame(fc.Fn, blk.Addr, nil, fc.NumRegs)
	for i, p := range fc.Fn.Params {
		if i < len(args) {
			m.store(fr.base+fc.ParamOffs[i], p.Type, args[i])
		}
	}
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

func (m *Machine) vmExec(fr *frame, fc *vm.FuncCode) Value {
	code := fc.Code
	regs := fr.regs
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
			if !regs[in.B].Truthy() {
				pc = int(in.A)
			}
		case vm.OpJumpEq:
			if regs[in.B].AsInt() == fc.Consts[in.C] {
				pc = int(in.A)
			}
		case vm.OpJumpBinFalse:
			if !m.vmBin(&fc.Bins[in.D], &regs[in.B], &regs[in.C]).Truthy() {
				pc = int(in.A)
			}
		case vm.OpJumpBinConstFalse:
			cv := IntVal(fc.Consts[in.C])
			if !m.vmBin(&fc.Bins[in.D], &regs[in.B], &cv).Truthy() {
				pc = int(in.A)
			}
		case vm.OpReturn:
			if in.A < 0 {
				return Value{}
			}
			return regs[in.A]

		case vm.OpConstInt:
			regs[in.A] = IntVal(fc.Consts[in.B])
		case vm.OpConstFloat:
			regs[in.A] = FloatVal(fc.Floats[in.B])
		case vm.OpConstStr:
			regs[in.A] = m.internString(fc.Strs[in.B])
		case vm.OpFnAddr:
			regs[in.A] = PtrVal(m.funcAddrOf(fc.Names[in.B]))

		case vm.OpAddrLocal:
			hb := fr.base + uint32(in.C)
			regs[in.A] = Value{K: VPtr, P: fr.base + uint32(in.B), B: hb, E: hb + uint32(in.D)}
		case vm.OpAddrGlobal:
			a := m.vmGlobals[in.B]
			if a == 0 {
				m.trapf("internal", "global %q has no storage", m.code.Globals[in.B].Name)
			}
			regs[in.A] = Value{K: VPtr, P: a, B: a, E: a + uint32(in.C)}
		case vm.OpAddrMem:
			pv := regs[in.B]
			b, e := pv.B, pv.E
			if b == 0 || e == 0 {
				b = pv.P
				e = pv.P + uint32(in.C)
			}
			regs[in.A] = Value{K: VPtr, P: pv.P, B: b, E: e}
		case vm.OpFieldOff:
			a := regs[in.B].P + uint32(in.C)
			regs[in.A] = Value{K: VPtr, P: a, B: a, E: a + uint32(in.D)}
		case vm.OpIndexOff:
			v := regs[in.B]
			idx := regs[in.C].AsInt()
			v.P = uint32(int64(v.P) + idx*int64(in.D))
			regs[in.A] = v
		case vm.OpIndexConst:
			v := regs[in.B]
			v.P += uint32(in.C)
			regs[in.A] = v
		case vm.OpAddrOf:
			v := regs[in.B]
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
			regs[in.A] = v

		case vm.OpLoad:
			addr := regs[in.B].P
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			regs[in.A] = m.vmLoad(addr, &fc.TyDescs[in.C], fc.Types[in.C])
		case vm.OpStore:
			m.vmStore(regs[in.A].P, &fc.TyDescs[in.C], fc.Types[in.C], fc.TySizes[in.C], regs[in.B])
		case vm.OpLoadLocal:
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			regs[in.A] = m.vmLoad(addr, &fc.TyDescs[in.C], fc.Types[in.C])
		case vm.OpStoreLocal:
			m.vmStore(fr.base+uint32(in.A), &fc.TyDescs[in.C], fc.Types[in.C], fc.TySizes[in.C], regs[in.B])
		case vm.OpLoadGlobal:
			g := m.vmGlobals[in.B]
			if g == 0 {
				m.trapf("internal", "global %q has no storage", m.code.Globals[in.B].Name)
			}
			addr := g + uint32(in.D)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			regs[in.A] = m.vmLoad(addr, &fc.TyDescs[in.C], fc.Types[in.C])
		case vm.OpStoreGlobal:
			g := m.vmGlobals[in.A]
			if g == 0 {
				m.trapf("internal", "global %q has no storage", m.code.Globals[in.A].Name)
			}
			m.vmStore(g+uint32(in.D), &fc.TyDescs[in.C], fc.Types[in.C], fc.TySizes[in.C], regs[in.B])
		case vm.OpAggCopy:
			m.check(m.mem.Copy(regs[in.A].P, regs[in.B].P, uint32(in.C)))

		case vm.OpConvert:
			cv := &fc.Convs[in.C]
			regs[in.A] = m.convertVia(regs[in.B], cv)
		case vm.OpBin:
			regs[in.A] = m.vmBin(&fc.Bins[in.D], &regs[in.B], &regs[in.C])
		case vm.OpBinConst:
			cv := IntVal(fc.Consts[in.C])
			regs[in.A] = m.vmBin(&fc.Bins[in.D], &regs[in.B], &cv)
		case vm.OpUn:
			regs[in.A] = m.vmUn(&fc.Uns[in.C], regs[in.B])

		case vm.OpCallFn:
			ci := &fc.Calls[in.C]
			args := regs[ci.ArgBase : ci.ArgBase+ci.NArgs]
			ret := m.vmCall(ci.FC, args)
			if in.A >= 0 {
				regs[in.A] = ret
			}
		case vm.OpCallNamed:
			ci := &fc.Calls[in.C]
			args := regs[ci.ArgBase : ci.ArgBase+ci.NArgs]
			bf, ok := m.builtins[ci.Name]
			if !ok {
				m.trapf("link", "call to undefined function %q", ci.Name)
			}
			m.recEvent(flight.EvWrapper, ci.Name, 0)
			ret := bf(m, args)
			if in.A >= 0 {
				regs[in.A] = ret
			}
		case vm.OpCallPtr:
			ci := &fc.Calls[in.C]
			args := regs[ci.ArgBase : ci.ArgBase+ci.NArgs]
			ret := m.callPtr(regs[in.B].P, args, ci.ArgTypes)
			if in.A >= 0 {
				regs[in.A] = ret
			}

		case vm.OpCheckBegin:
			m.checkEnter(fc.Checks[in.C])
		case vm.OpCheck:
			m.checkVerdict(fc.Checks[in.C], regs[in.B])
			m.curCheck = nil
		case vm.OpStackTest:
			v := regs[in.B]
			if v.K != VPtr || v.P == 0 || !m.mem.InStack(v.P) {
				m.curCheck = nil
				pc = int(in.A)
			}
		case vm.OpStackVerify:
			m.stackEscapeVerify(regs[in.B], regs[in.C].P)
			m.curCheck = nil

		// Superinstructions: each is its two constituents in sequence
		// (dead intermediate register writes elided).
		case vm.OpJumpTrue:
			if regs[in.B].Truthy() {
				pc = int(in.A)
			}
		case vm.OpLoadConv:
			addr := regs[in.B].P
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			cv := &fc.Convs[in.D]
			lv := m.vmLoad(addr, &fc.TyDescs[in.C], fc.Types[in.C])
			regs[in.A] = m.convertVia(lv, cv)
		case vm.OpStepLoadLocal:
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
			regs[in.A] = m.vmLoad(addr, &fc.TyDescs[in.C], fc.Types[in.C])
		case vm.OpStoreLocalStep:
			m.vmStore(fr.base+uint32(in.A), &fc.TyDescs[in.C], fc.Types[in.C], fc.TySizes[in.C], regs[in.B])
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
			cv := &fc.Convs[in.C]
			m.vmStore(fr.base+uint32(in.A), &fc.TyDescs[in.D], fc.Types[in.D], fc.TySizes[in.D],
				m.convertVia(regs[in.B], cv))
		case vm.OpJumpFalseStep:
			if !regs[in.B].Truthy() {
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
		case vm.OpLoadLocalBin:
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			bi := &fc.Bins[in.D]
			lv := m.vmLoad(addr, &fc.TyDescs[in.C], fc.Types[in.C])
			regs[in.A] = m.vmBin(bi, &regs[in.A], &lv)
		case vm.OpLoadLocalBinConst:
			addr := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, addr, uint32(fc.TySizes[in.C]))
			}
			bi := &fc.Bins[in.D]
			lv := m.vmLoad(addr, &fc.TyDescs[in.C], fc.Types[in.C])
			cv := IntVal(bi.CI)
			regs[in.A] = m.vmBin(bi, &lv, &cv)
		case vm.OpBinAddrMem:
			bi := &fc.Bins[in.D]
			v := m.vmBin(bi, &regs[in.B], &regs[in.C])
			b, e := v.B, v.E
			if b == 0 || e == 0 {
				b = v.P
				e = v.P + uint32(bi.MemSize)
			}
			regs[in.A] = Value{K: VPtr, P: v.P, B: b, E: e}
		case vm.OpBinCheck:
			v := m.vmBin(&fc.Bins[in.D], &regs[in.B], &regs[in.C])
			m.checkVerdict(fc.Checks[in.A], v)
			m.curCheck = nil
		case vm.OpCheckStep:
			m.checkVerdict(fc.Checks[in.C], regs[in.B])
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
		case vm.OpLoadLocal2Bin:
			bi := &fc.Bins[in.D]
			a1 := fr.base + uint32(in.B)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, a1, uint32(fc.TySizes[bi.LTy]))
			}
			lv1 := m.vmLoad(a1, &fc.TyDescs[bi.LTy], fc.Types[bi.LTy])
			a2 := fr.base + uint32(in.C)
			if m.policyShadow != nil {
				m.policyShadow.onLoad(m, a2, uint32(fc.TySizes[bi.RTy]))
			}
			lv2 := m.vmLoad(a2, &fc.TyDescs[bi.RTy], fc.Types[bi.RTy])
			regs[in.A] = m.vmBin(bi, &lv1, &lv2)
		case vm.OpStepLoadLocalBinConst:
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
			lv := m.vmLoad(addr, &fc.TyDescs[bi.LTy], fc.Types[bi.LTy])
			cv := IntVal(bi.CI)
			regs[in.A] = m.vmBin(bi, &lv, &cv)
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

// vmLoad is Machine.load with the per-access type interrogation — the
// kind switch, the split-representation lookup, the qualifier-graph
// query — resolved at compile time into d. The memory reads, costs, and
// trap messages are identical to value.go's load/loadPtr.
func (m *Machine) vmLoad(addr uint32, d *vm.TyDesc, t *ctypes.Type) Value {
	switch d.Kind {
	case ctypes.Int:
		if i, ok := m.mem.LoadInt(addr, int(d.Size), d.Signed); ok {
			return IntVal(i)
		}
		// The fast path refused: ReadInt builds the same trap the tree's
		// load does.
		_, err := m.mem.ReadInt(addr, int(d.Size), d.Signed)
		m.check(err)
		return Value{}
	case ctypes.Float:
		f, err := m.mem.ReadFloat(addr, int(d.Size))
		m.check(err)
		return FloatVal(f)
	case ctypes.Ptr:
		if d.Split {
			p, err := m.mem.ReadWord(addr)
			m.check(err)
			v := Value{K: VPtr, P: p}
			meta, ok := m.shadowMeta[addr]
			if ok {
				v.B, v.E = meta.b, meta.e
				v.RT = m.nodeByID(meta.rt)
			}
			m.splitWork(addr, ok)
			return v
		}
		switch d.PKind {
		case qual.Seq:
			p, err := m.mem.ReadWord(addr)
			m.check(err)
			b, err := m.mem.ReadWord(addr + 4)
			m.check(err)
			e, err := m.mem.ReadWord(addr + 8)
			m.check(err)
			return Value{K: VPtr, P: p, B: b, E: e}
		case qual.Wild:
			b, err := m.mem.ReadWord(addr)
			m.check(err)
			p, err := m.mem.ReadWord(addr + 4)
			m.check(err)
			return Value{K: VPtr, P: p, B: b}
		case qual.Rtti:
			p, err := m.mem.ReadWord(addr)
			m.check(err)
			id, err := m.mem.ReadWord(addr + 4)
			m.check(err)
			return Value{K: VPtr, P: p, RT: m.nodeByID(int(id))}
		default:
			p, err := m.mem.ReadWord(addr)
			m.check(err)
			return Value{K: VPtr, P: p}
		}
	default:
		m.trapf("access", "cannot load value of type %s", t)
		return Value{}
	}
}

// vmStore is Machine.store/storePtr over a compile-time descriptor; hook
// is the precomputed Sizeof for the shadow-policy callback.
func (m *Machine) vmStore(addr uint32, d *vm.TyDesc, t *ctypes.Type, hook int32, v Value) {
	switch d.Kind {
	case ctypes.Int:
		if i := v.AsInt(); !m.mem.StoreInt(addr, int(d.Size), i) {
			m.check(m.mem.WriteInt(addr, int(d.Size), i))
		}
	case ctypes.Float:
		m.check(m.mem.WriteFloat(addr, int(d.Size), v.AsFloat()))
	case ctypes.Ptr:
		m.vmStorePtr(addr, d, v)
	default:
		m.trapf("access", "cannot store value of type %s", t)
	}
	if m.policyShadow != nil {
		m.policyShadow.onStore(m, addr, uint32(hook))
	}
}

func (m *Machine) vmStorePtr(addr uint32, d *vm.TyDesc, v Value) {
	if d.Split {
		m.check(m.mem.WriteWord(addr, v.P))
		switch d.PKind {
		case qual.Seq, qual.Rtti, qual.Wild:
			if v.B != 0 || v.E != 0 || v.RT != nil {
				m.shadowMeta[addr] = metaEntry{b: v.B, e: v.E, rt: m.idOfNode(v.RT)}
				m.splitWork(addr, true)
			} else {
				_, had := m.shadowMeta[addr]
				if had {
					delete(m.shadowMeta, addr)
				}
				m.splitWork(addr, had)
			}
		}
		return
	}
	switch d.PKind {
	case qual.Seq:
		m.check(m.mem.WriteWord(addr, v.P))
		m.check(m.mem.WriteWord(addr+4, v.B))
		m.check(m.mem.WriteWord(addr+8, v.E))
	case qual.Wild:
		m.check(m.mem.WriteWord(addr, v.B))
		m.check(m.mem.WriteWord(addr+4, v.P))
		if blk := m.mem.BlockAt(addr); blk != nil && blk.Wild {
			blk.SetTag(addr, 1)
			blk.SetTag(addr+4, 0)
		}
	case qual.Rtti:
		m.check(m.mem.WriteWord(addr, v.P))
		m.check(m.mem.WriteWord(addr+4, uint32(m.idOfNode(v.RT))))
	default:
		m.check(m.mem.WriteWord(addr, v.P))
		if blk := m.mem.BlockAt(addr); blk != nil && blk.Wild {
			blk.SetTag(addr, 0)
		}
	}
}

// vmBin mirrors evalBinOp over precomputed operand facts. The operands
// are passed by pointer (they are read-only): two Values exceed Go's
// register-passing budget and would spill to the stack on every call.
//
// Integer operands of an integer-typed operation take a fast path that
// switches straight to the operation: VInt operands make AsInt the
// identity and cmpInts a plain compare, and IsInt makes the result
// normalisation unconditional. Division and remainder (which trap) and
// every other operand mix — pointers, floats — use the general path.
func (m *Machine) vmBin(bi *vm.BinInfo, a, b *Value) Value {
	if a.K == VInt && b.K == VInt && bi.IsInt {
		x, y := a.I, b.I
		var r int64
		switch bi.Op {
		case cil.OpAdd:
			r = x + y
		case cil.OpSub:
			r = x - y
		case cil.OpMul:
			r = x * y
		case cil.OpShl:
			r = x << uint(y&63)
		case cil.OpShr:
			if bi.OpSigned {
				r = x >> uint(y&63)
			} else {
				r = int64(uint32(x) >> uint(y&31))
			}
		case cil.OpBitAnd:
			r = x & y
		case cil.OpBitOr:
			r = x | y
		case cil.OpBitXor:
			r = x ^ y
		case cil.OpEq:
			return boolVal(x == y)
		case cil.OpNe:
			return boolVal(x != y)
		case cil.OpLt, cil.OpGt, cil.OpLe, cil.OpGe:
			if !bi.OpSigned {
				x, y = int64(uint32(x)), int64(uint32(y))
			}
			switch bi.Op {
			case cil.OpLt:
				return boolVal(x < y)
			case cil.OpGt:
				return boolVal(x > y)
			case cil.OpLe:
				return boolVal(x <= y)
			}
			return boolVal(x >= y)
		default:
			goto general
		}
		return IntVal(normInt(r, bi.Size, bi.TySigned))
	}

general:
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
