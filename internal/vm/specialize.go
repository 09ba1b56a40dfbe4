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

// specialize rewrites in, which the compiler is about to emit, into its
// integer or pointer form where the kinds proven for its operands allow,
// and records the kind it leaves in its destination register. The proof
// holds for straight-line code only: here() forgets it at every label,
// where control merges. Superinstructions are built afterwards, by fuse,
// from the already-specialized halves.
func (c *fnCompiler) specialize(in *Instr) {
	rk := c.rk
	switch in.Op {
	case OpConstInt:
		rk[in.A] = rkInt
	case OpConstFloat:
		rk[in.A] = rkFloat
	case OpConstStr, OpFnAddr, OpAddrLocal, OpAddrGlobal, OpAddrMem, OpAddrOf:
		rk[in.A] = rkPtr
	case OpFieldOff:
		c.srcK, rk[in.A] = rk[in.B], rkPtr
	case OpLoad:
		if c.tyKind(in.C) == rkInt && rk[in.B] == rkPtr {
			in.Op = OpLoadI
		}
		rk[in.A] = c.tyKind(in.C)
	case OpStore:
		if c.tyKind(in.C) == rkInt && rk[in.A] == rkPtr && rk[in.B].intLike() {
			in.Op = OpStoreI
		}
	case OpLoadGlobal:
		rk[in.A] = c.tyKind(in.C)
	case OpLoadLocal:
		if rk[in.A] = c.tyKind(in.C); rk[in.A] == rkInt {
			in.Op = OpLoadLocalI
		}
	case OpStoreLocal:
		if c.tyKind(in.C) == rkInt && rk[in.B].intLike() {
			in.Op = OpStoreLocalI
		}
	case OpConvert:
		from := rk[in.B]
		if from.intLike() && c.fc.Convs[in.C].To.IsInteger() {
			in.Op = OpConvertI
		}
		rk[in.A] = c.convKind(in.C, from)
	case OpBin:
		a, b := rk[in.B], rk[in.C]
		k := c.binKind(in.D, a, b)
		if c.intBin(in.D) && a == rkInt && b == rkInt {
			in.Op = OpBinI
		} else if pb, ok := c.ptrBin(in.D); ok && a == rkPtr && b.intLike() && in.A == in.B {
			in.Op, in.D = OpPtrAdd, pb
		}
		rk[in.A] = k
	case OpUn:
		c.srcK, rk[in.A] = rk[in.B], c.unKind(in.C, rk[in.B])
	case OpJumpFalse:
		if rk[in.B].intLike() {
			in.Op = OpJumpFalseI
		}
	case OpCallFn, OpCallNamed, OpCallPtr:
		if in.A >= 0 {
			rk[in.A] = rkAny
		}
	}
}
