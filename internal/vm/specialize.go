package vm

import (
	"gocured/internal/cil"
	"gocured/internal/ctypes"
)

// regKind is what the compiler can prove about a register's dynamic
// value at one point of the code. The executor keeps a kind byte per
// register because static types do not fix it: a call returns whatever
// the callee or builtin built, pointer arithmetic keeps the kind of its
// pointer operand, and arithmetic turns float when an operand is one.
// Where the kind is proven, an opcode can skip the executor's kind switch.
type regKind uint8

const (
	rkAny   regKind = iota // unknown
	rkInt                  // a plain VInt: the data bank holds I
	rkFloat                // a plain VFloat
	rkPtr                  // a plain VPtr: the data bank holds P, the metadata bank B/E/RT
)

// intLike reports that the data bank holds the register's AsInt value
// and that it is truthy exactly when that value is non-zero.
func (k regKind) intLike() bool { return k == rkInt || k == rkPtr }

// intOpOf is the integer operation of an integer-typed BinOp (INone for
// pointer arithmetic and operators the integer forms do not cover).
// signed is BinInfo.OpSigned.
func intOpOf(op cil.Op, signed bool) IntOp {
	pick := func(s, u IntOp) IntOp {
		if signed {
			return s
		}
		return u
	}
	switch op {
	case cil.OpAdd:
		return IAdd
	case cil.OpSub:
		return ISub
	case cil.OpMul:
		return IMul
	case cil.OpDiv:
		return pick(IDivS, IDivU)
	case cil.OpRem:
		return pick(IRemS, IRemU)
	case cil.OpShl:
		return IShl
	case cil.OpShr:
		return pick(IShrS, IShrU)
	case cil.OpBitAnd:
		return IAnd
	case cil.OpBitOr:
		return IOr
	case cil.OpBitXor:
		return IXor
	case cil.OpEq:
		return IEq
	case cil.OpNe:
		return INe
	}
	if !signed {
		// An ordered comparison is signed whenever its result type is
		// (always int in C); an unsigned one stays on the generic path.
		return INone
	}
	switch op {
	case cil.OpLt:
		return ILt
	case cil.OpGt:
		return IGt
	case cil.OpLe:
		return ILe
	case cil.OpGe:
		return IGe
	}
	return INone
}

// tyKind is the kind a load of type Types[i] produces.
func (c *fnCompiler) tyKind(i int32) regKind {
	switch c.fc.TyDescs[i].Kind {
	case ctypes.Int:
		return rkInt
	case ctypes.Float:
		return rkFloat
	case ctypes.Ptr:
		return rkPtr
	}
	return rkAny
}

// convKind is the kind convertVia produces for Convs[i] from a value of
// kind from: integer and float targets always build a fresh value, a
// pointer target keeps a plain VPtr plain.
func (c *fnCompiler) convKind(i int32, from regKind) regKind {
	to := c.fc.Convs[i].To
	switch {
	case to.IsInteger():
		return rkInt
	case to.Kind == ctypes.Float:
		return rkFloat
	case to.IsPointer() && from != rkAny:
		return rkPtr
	}
	return rkAny
}

// binKind is the kind vmBin produces for Bins[i] from operands of kinds
// a and b: comparisons and pointer differences are always VInt, pointer
// arithmetic keeps its pointer operand's kind, and other arithmetic is
// VInt unless an operand is (or may be) a float.
func (c *fnCompiler) binKind(i int32, a, b regKind) regKind {
	switch op := c.fc.Bins[i].Op; op {
	case cil.OpAddPI, cil.OpSubPI:
		if a == rkPtr {
			return rkPtr
		}
		return rkAny
	case cil.OpSubPP, cil.OpEq, cil.OpNe, cil.OpLt, cil.OpGt, cil.OpLe, cil.OpGe:
		return rkInt
	}
	if a.intLike() && b.intLike() {
		return rkInt
	}
	return rkAny
}

// unKind is the kind vmUn produces for Uns[i] from an operand of kind x.
func (c *fnCompiler) unKind(i int32, x regKind) regKind {
	if c.fc.Uns[i].Op != cil.OpNeg || x.intLike() {
		return rkInt
	}
	if x == rkFloat {
		return rkFloat
	}
	return rkAny
}

// intBin reports that Bins[i] runs as an IntOp on two VInt operands.
func (c *fnCompiler) intBin(i int32) bool { return c.fc.Bins[i].IOp != INone }

// ptrBin returns the index of an OpAddPI form of Bins[i] when it is
// pointer arithmetic: OpSubPI becomes OpAddPI with the element size
// negated, so the pointer forms need no operator test.
func (c *fnCompiler) ptrBin(i int32) (int32, bool) {
	bi := c.fc.Bins[i]
	switch bi.Op {
	case cil.OpAddPI:
		return i, true
	case cil.OpSubPI:
		return c.binI(BinInfo{Op: cil.OpAddPI, Esz: -bi.Esz, MemSize: bi.MemSize}), true
	}
	return 0, false
}

// specialize is the last compile pass: it walks the finished code,
// tracks what each register is proven to hold, and rewrites generic
// opcodes into their integer and pointer forms where the proof holds.
// Registers live within one statement's expressions, so the proof is
// forgotten at every jump target, where control merges.
func (c *fnCompiler) specialize() {
	code := c.fc.Code
	target := make([]bool, len(code)+1)
	for _, in := range code {
		switch in.Op {
		case OpJump, OpJumpFalse, OpJumpEq, OpJumpBinFalse, OpJumpBinConstFalse,
			OpJumpTrue, OpJumpBack, OpJumpFalseStep, OpStackTest:
			target[in.A] = true
		}
	}
	rk := make([]regKind, c.fc.NumRegs)
	for pc := range code {
		if target[pc] {
			clear(rk)
		}
		in := &code[pc]
		switch in.Op {
		case OpConstInt:
			rk[in.A] = rkInt
		case OpConstFloat:
			rk[in.A] = rkFloat
		case OpConstStr, OpFnAddr, OpAddrLocal, OpAddrGlobal, OpAddrMem, OpFieldOff, OpAddrOf, OpBinAddrMem:
			rk[in.A] = rkPtr
		case OpLoad:
			if c.tyKind(in.C) == rkInt && rk[in.B] == rkPtr {
				in.Op = OpLoadI
			}
			rk[in.A] = c.tyKind(in.C)
		case OpStore:
			if c.tyKind(in.C) == rkInt && rk[in.A] == rkPtr && rk[in.B].intLike() {
				in.Op = OpStoreI
			}
		case OpLoadField:
			if c.tyKind(in.D) == rkInt && rk[in.B] == rkPtr {
				in.Op = OpLoadFieldI
			}
			rk[in.A] = c.tyKind(in.D)
		case OpStoreField:
			if c.tyKind(in.C) == rkInt && rk[in.A] == rkPtr && rk[in.B].intLike() {
				in.Op = OpStoreFieldI
			}
		case OpLoadGlobal:
			rk[in.A] = c.tyKind(in.C)
		case OpLoadLocal:
			if rk[in.A] = c.tyKind(in.C); rk[in.A] == rkInt {
				in.Op = OpLoadLocalI
			}
		case OpStepLoadLocal:
			if rk[in.A] = c.tyKind(in.C); rk[in.A] == rkInt {
				in.Op = OpStepLoadLocalI
			}
		case OpStoreLocal:
			if c.tyKind(in.C) == rkInt && rk[in.B].intLike() {
				in.Op = OpStoreLocalI
			}
		case OpStoreLocalStep:
			if c.tyKind(in.C) == rkInt && rk[in.B].intLike() {
				in.Op = OpStoreLocalStepI
			}
		case OpConvStoreLocal:
			cv := c.fc.Convs[in.C]
			if c.tyKind(in.D) == rkInt && rk[in.B].intLike() && cv.To.IsInteger() &&
				int32(cv.To.Size) == c.fc.TyDescs[in.D].Size {
				*in = Instr{Op: OpStoreLocalI, A: in.A, B: in.B, C: in.D}
			}
		case OpConvert:
			from := rk[in.B]
			if from.intLike() && c.fc.Convs[in.C].To.IsInteger() {
				in.Op = OpConvertI
			}
			rk[in.A] = c.convKind(in.C, from)
		case OpLoadConv:
			if c.tyKind(in.C) == rkInt && c.fc.Convs[in.D].To.IsInteger() {
				in.Op = OpLoadConvI
			}
			rk[in.A] = c.convKind(in.D, c.tyKind(in.C))
		case OpBin:
			a, b := rk[in.B], rk[in.C]
			if c.intBin(in.D) && a == rkInt && b == rkInt {
				in.Op = OpBinI
			} else if pb, ok := c.ptrBin(in.D); ok && a == rkPtr && b.intLike() && in.A == in.B {
				in.Op, in.D = OpPtrAdd, pb
			}
			rk[in.A] = c.binKind(in.D, a, b)
		case OpBinConst:
			a, k := rk[in.B], c.binKind(in.D, rk[in.B], rkInt)
			if c.intBin(in.D) && a == rkInt {
				in.Op = OpBinConstI
			} else if pb, ok := c.ptrBin(in.D); ok && a == rkPtr && in.A == in.B {
				*in = Instr{Op: OpPtrAddConst, A: in.A, B: in.B, C: c.constI(c.fc.Consts[in.C] * c.fc.Bins[pb].Esz)}
			}
			rk[in.A] = k
		case OpJumpBinFalse:
			if c.intBin(in.D) && rk[in.B] == rkInt && rk[in.C] == rkInt {
				in.Op = OpJumpBinFalseI
			}
		case OpJumpBinConstFalse:
			if c.intBin(in.D) && rk[in.B] == rkInt {
				in.Op = OpJumpBinConstFalseI
			}
		case OpLoadLocalBin:
			a, b := rk[in.A], c.tyKind(in.C)
			if c.intBin(in.D) && a == rkInt && b == rkInt {
				in.Op = OpLoadLocalBinI
			} else if pb, ok := c.ptrBin(in.D); ok && a == rkPtr && b == rkInt {
				in.Op, in.D = OpLoadLocalPtrAdd, pb
			}
			rk[in.A] = c.binKind(in.D, a, b)
		case OpLoadLocalBinConst:
			a := c.tyKind(in.C)
			if c.intBin(in.D) && a == rkInt {
				in.Op = OpLoadLocalBinConstI
			} else if pb, ok := c.ptrBin(in.D); ok && a == rkPtr {
				fused := c.fc.Bins[pb]
				fused.CI = c.fc.Bins[in.D].CI
				in.Op, in.D = OpLoadLocalPtrAddConst, c.binI(fused)
			}
			rk[in.A] = c.binKind(in.D, a, rkInt)
		case OpLoadLocal2Bin:
			bi := c.fc.Bins[in.D]
			a, b := c.tyKind(bi.LTy), c.tyKind(bi.RTy)
			if c.intBin(in.D) && a == rkInt && b == rkInt {
				in.Op = OpLoadLocal2BinI
			} else if pb, ok := c.ptrBin(in.D); ok && a == rkPtr && b == rkInt {
				fused := c.fc.Bins[pb]
				fused.LTy, fused.RTy = bi.LTy, bi.RTy
				in.Op, in.D = OpLoadLocal2PtrAdd, c.binI(fused)
			}
			rk[in.A] = c.binKind(in.D, a, b)
		case OpStepLoadLocalBinConst:
			a := c.tyKind(c.fc.Bins[in.C].LTy)
			if c.intBin(in.C) && a == rkInt {
				in.Op = OpStepLoadLocalBinConstI
			}
			rk[in.A] = c.binKind(in.C, a, rkInt)
		case OpUn:
			rk[in.A] = c.unKind(in.C, rk[in.B])
		case OpJumpFalse:
			if rk[in.B].intLike() {
				in.Op = OpJumpFalseI
			}
		case OpJumpTrue:
			if rk[in.B].intLike() {
				in.Op = OpJumpTrueI
			}
		case OpJumpFalseStep:
			if rk[in.B].intLike() {
				in.Op = OpJumpFalseStepI
			}
		case OpCallFn, OpCallNamed, OpCallPtr:
			if in.A >= 0 {
				rk[in.A] = rkAny
			}
		}
	}
}
