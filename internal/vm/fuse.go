package vm

import "gocured/internal/cil"

// fuse returns the superinstruction that runs prev and then next in one
// dispatch, if there is one. emit calls it on every new instruction while
// no label separates it from the last one, and again on the fused result
// against the instruction before, so a triple folds in two steps. Both
// halves are already specialized, so a fused form is built only from
// integer, pointer or kind-independent parts: a register whose kind is not
// proven keeps the unfused generic sequence.
//
// A fused form is its two halves in sequence, except that some drop a
// register write that nothing reads afterwards: a branch condition, a
// checked pointer, a stored value, a folded constant or local operand.
// Each of those registers dies at the instruction that consumes it; the
// fusions rely on the compiler releasing them there. The proofs in rk then
// describe the dropped writes, but a register is always written again
// before it is next read.
func (c *fnCompiler) fuse(prev, next Instr) (Instr, bool) {
	switch next.Op {
	case OpStep:
		switch prev.Op {
		case OpStoreLocal, OpStoreLocalI:
			op := pick(prev.Op == OpStoreLocalI, OpStoreLocalStepI, OpStoreLocalStep)
			return Instr{Op: op, A: prev.A, B: prev.B, C: prev.C, D: next.A}, true
		case OpJumpFalseI:
			// The step charges only on fall-through; the branch target is a
			// different statement with its own step.
			return Instr{Op: OpJumpFalseStepI, A: prev.A, B: prev.B, C: next.A}, true
		case OpCheck:
			return Instr{Op: OpCheckStep, B: prev.B, C: prev.C, D: next.A}, true
		}
	case OpCheckBegin:
		if prev.Op == OpStep {
			return Instr{Op: OpStepCheckBegin, C: next.C, D: prev.A}, true
		}
	case OpLoadLocal, OpLoadLocalI:
		if prev.Op == OpStep {
			// A statement's first action is very often reading a local —
			// the single hottest dynamic pair.
			op := pick(next.Op == OpLoadLocalI, OpStepLoadLocalI, OpStepLoadLocal)
			return Instr{Op: op, A: next.A, B: next.B, C: next.C, D: prev.A}, true
		}
	case OpJumpFalse, OpJumpFalseI:
		// An If condition computed by the instruction just before the branch.
		if prev.A != next.B {
			break
		}
		switch prev.Op {
		case OpBinI:
			return Instr{Op: OpJumpBinFalseI, A: next.A, B: prev.B, C: prev.C, D: prev.D}, true
		case OpBinConstI:
			return Instr{Op: OpJumpBinConstFalseI, A: next.A, B: prev.B, C: prev.C, D: prev.D}, true
		case OpUn:
			if c.fc.Uns[prev.C].Op == cil.OpNot {
				// if (!x): the Not ran in place, so without its write the
				// register still holds x, whose proof the Not saw.
				return Instr{Op: pick(c.srcK.intLike(), OpJumpTrueI, OpJumpTrue), A: next.A, B: prev.B}, true
			}
		}
	case OpCheck:
		if prev.A == next.B && (prev.Op == OpBin || prev.Op == OpPtrAdd) {
			// Checked pointer arithmetic (CheckSeq on p+i): compute and
			// judge in one dispatch.
			return Instr{Op: OpBinCheck, A: next.C, B: prev.B, C: prev.C, D: prev.D}, true
		}
	case OpAddrMem:
		if prev.A == next.B && (prev.Op == OpBin || prev.Op == OpPtrAdd) {
			// p[i] via pointer arithmetic: *(p + i) in one dispatch.
			bi := c.fc.Bins[prev.D]
			bi.MemSize = next.C
			return Instr{Op: OpBinAddrMem, A: next.A, B: prev.B, C: prev.C, D: c.binI(bi)}, true
		}
	case OpConvert, OpConvertI:
		if (prev.Op == OpLoad || prev.Op == OpLoadI) && prev.A == next.B {
			// *p widened or cast.
			i := c.tyKind(prev.C) == rkInt && c.fc.Convs[next.C].To.IsInteger()
			return Instr{Op: pick(i, OpLoadConvI, OpLoadConv), A: next.A, B: prev.B, C: prev.C, D: next.C}, true
		}
	case OpStoreLocal, OpStoreLocalI:
		if (prev.Op != OpConvert && prev.Op != OpConvertI) || prev.A != next.B {
			break
		}
		if prev.Op == OpConvertI && next.Op == OpStoreLocalI &&
			int32(c.fc.Convs[prev.C].To.Size) == c.fc.TyDescs[next.C].Size {
			// An integer conversion of an int-like register to the slot's
			// own width cannot change the stored bytes.
			return Instr{Op: OpStoreLocalI, A: next.A, B: prev.B, C: next.C}, true
		}
		return Instr{Op: OpConvStoreLocal, A: next.A, B: prev.B, C: prev.C, D: next.C}, true
	case OpLoad, OpLoadI:
		if prev.Op == OpFieldOff && prev.A == next.B {
			// p->f: the field's home bounds are dead for a load.
			i := next.Op == OpLoadI && c.srcK == rkPtr
			return Instr{Op: pick(i, OpLoadFieldI, OpLoadField), A: next.A, B: prev.B, C: prev.C, D: next.C}, true
		}
	case OpStore, OpStoreI:
		if prev.Op == OpFieldOff && prev.A == next.A {
			// p->f = v: the field's home bounds are dead for a store.
			i := next.Op == OpStoreI && c.srcK == rkPtr
			return Instr{Op: pick(i, OpStoreFieldI, OpStoreField), A: prev.B, B: next.B, C: next.C, D: prev.C}, true
		}
	case OpBinI, OpPtrAdd:
		// A constant or local right operand folds into the operation.
		if prev.A != next.C || prev.A == next.B || next.A != next.B {
			break
		}
		switch prev.Op {
		case OpConstInt:
			if next.Op == OpBinI {
				return Instr{Op: OpBinConstI, A: next.A, B: next.B, C: prev.B, D: next.D}, true
			}
			disp := c.fc.Consts[prev.B] * c.fc.Bins[next.D].Esz
			return Instr{Op: OpPtrAddConst, A: next.A, B: next.B, C: c.constI(disp)}, true
		case OpLoadLocalI:
			op := pick(next.Op == OpBinI, OpLoadLocalBinI, OpLoadLocalPtrAdd)
			return Instr{Op: op, A: next.A, B: prev.B, C: prev.C, D: next.D}, true
		}
	case OpBinConstI:
		// local <op> constant (i < n, i + 1, ...), statement-initial or not.
		if prev.A != next.B {
			break
		}
		bi := c.fc.Bins[next.D]
		bi.CI = c.fc.Consts[next.C]
		switch prev.Op {
		case OpLoadLocalI:
			return Instr{Op: OpLoadLocalBinConstI, A: next.A, B: prev.B, C: prev.C, D: c.binI(bi)}, true
		case OpStepLoadLocalI:
			bi.LTy = prev.C
			return Instr{Op: OpStepLoadLocalBinConstI, A: next.A, B: prev.B, C: c.binI(bi), D: prev.D}, true
		}
	case OpPtrAddConst:
		if prev.Op == OpLoadLocal && prev.A == next.A {
			return Instr{Op: OpLoadLocalPtrAddConst, A: next.A, B: prev.B, C: prev.C, D: next.C}, true
		}
	case OpLoadLocalBinI, OpLoadLocalPtrAdd:
		// local <op> local: the left operand's load folds in too; the load
		// types ride in the BinInfo.
		i := next.Op == OpLoadLocalBinI
		if prev.A == next.A && prev.Op == pick(i, OpLoadLocalI, OpLoadLocal) {
			bi := c.fc.Bins[next.D]
			bi.LTy, bi.RTy = prev.C, next.C
			op := pick(i, OpLoadLocal2BinI, OpLoadLocal2PtrAdd)
			return Instr{Op: op, A: next.A, B: prev.B, C: next.B, D: c.binI(bi)}, true
		}
	}
	return Instr{}, false
}

// pick is special when its condition holds, and generic otherwise.
func pick(cond bool, special, generic Op) Op {
	if cond {
		return special
	}
	return generic
}
