// Package vm defines the flat register-style bytecode the interpreter
// executes in production, and the compiler that produces it from
// an instrumented CIL program.
//
// The tree-walking evaluator in internal/interp re-dispatches on Go node
// types for every statement and expression, and resolves every local
// variable through a per-function offset map. The bytecode backend moves
// all of that work to compile time: one pass per cil.Func lowers the
// structured statement tree into a dense []Instr, resolves every cil.Var
// to a fixed frame-slot offset (via the same FrameLayout the tree backend
// uses, so frame addresses are bit-identical), folds sizeof, interns
// constants/strings/types/conversion pairs into per-function pools, and
// lowers every run-time check to dedicated opcodes that carry the
// *cil.Check — and therefore its post-optimizer site ID — so the hot path
// never touches a map or renders a position string.
//
// The package owns the code format and the compiler only; the dispatch
// loop lives in internal/interp (it needs the full machine state: memory,
// counters, flight recorder, trap plumbing). Semantics are defined by the
// tree walker, which stays as the test reference: every opcode mirrors one
// evaluation step of the tree walker exactly, including evaluation order,
// step/back-edge accounting, lazy string interning, and trap messages. The
// differential fuzzer enforces the equivalence.
package vm

import (
	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/qual"
)

// Layout is the slice of the layout oracle the compiler needs. Both
// instrument.(*Layout) (cured) and instrument.RawLayout (raw) satisfy it.
type Layout interface {
	Sizeof(*ctypes.Type) int
	Alignof(*ctypes.Type) int
	FieldOff(*ctypes.Field) int
	KindOf(*ctypes.Type) qual.Kind
	IsSplit(*ctypes.Type) bool
}

// TyDesc caches everything Machine.load/store interrogate about an
// occurrence type — scalar class, width, signedness, split representation,
// pointer kind — so the VM's memory opcodes skip the per-access kind
// switch, split lookup, and qualifier-graph query the tree walker performs
// on every load and store.
type TyDesc struct {
	Kind   ctypes.Kind // scalar class (Int/Float/Ptr)
	Size   int32       // t.Size: int/float operand width
	Signed bool
	Split  bool      // compatible (split) pointer representation
	PKind  qual.Kind // pointer kind driving the fat representation
}

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Operand meanings are given per opcode; A is usually the
// destination register, B/C sources, D a pool index.
const (
	// Control flow and accounting.
	OpStep      Op = iota // one statement step; A = Poss index to set curPos (-1: keep)
	OpBackEdge            // loop back-edge: counts against the step limit, no cost
	OpJump                // pc = A
	OpJumpFalse           // if !truthy(reg B): pc = A
	OpJumpEq              // if reg B as int == Consts[C]: pc = A (switch dispatch)
	OpReturn              // return reg A (-1: return zero value)

	// Constants.
	OpConstInt   // reg A = Consts[B]
	OpConstFloat // reg A = Floats[B]
	OpConstStr   // reg A = intern(Strs[B]) (lazy, like the tree backend)
	OpFnAddr     // reg A = &function Names[B]

	// Addresses. Address registers carry the home-area bounds in B/E so
	// OpAddrOf can hand SEQ pointers their extent, exactly as evalLval.
	// The compiler folds chains of fields and constant array indices at
	// compile time, so a static lvalue like s.a[3].f is one instruction.
	// An index step that does not fold keeps the home area, exactly like
	// pointer arithmetic: it compiles to an OpAddPI OpBin.
	OpAddrLocal  // reg A = frame base + B; home = [base+C, base+C+D)
	OpAddrGlobal // reg A = globals[B]; home = [addr, addr+C)
	OpAddrMem    // reg A = deref reg B; home = ptr bounds or [addr, addr+C)
	OpFieldOff   // reg A = reg B + C; home narrows to [addr, addr+D)
	OpAddrOf     // reg A = address-of reg B; C = AddrPlain/Wild/Rtti, D = Types idx

	// Memory. TySizes[C] parallels Types[C] (the shadow-policy hook size).
	OpLoad        // reg A = load(reg B, Types[C])
	OpStore       // store(reg A, Types[C], reg B)
	OpLoadLocal   // reg A = load(frame base + B, Types[C]) (fused addr+load)
	OpStoreLocal  // store(frame base + A, Types[C], reg B)
	OpLoadGlobal  // reg A = load(globals[B] + D, Types[C])
	OpStoreGlobal // store(globals[A] + D, Types[C], reg B)
	OpAggCopy     // memcpy(reg A, reg B, C bytes)

	// Values.
	OpConvert // reg A = convert(reg B, Convs[C])
	OpBin     // reg A = binop(reg B, reg C, Bins[D])
	OpUn      // reg A = unop(reg B, Uns[C])

	// Calls. Arguments sit in consecutive registers (Calls[idx].ArgBase).
	OpCallFn    // reg A = call Calls[C] (direct, defined function)
	OpCallNamed // reg A = call Calls[C] (builtin wrapper or link trap)
	OpCallPtr   // reg A = call through pointer reg B with Calls[C]

	// Checks (two-phase so traps during pointer evaluation attribute to
	// the check site, mirroring the tree's execCheck ordering).
	OpCheckBegin  // count/cost/record Checks[C] and set it in flight
	OpCheck       // verdict of Checks[C] on reg B; clears the in-flight check
	OpStackTest   // CheckStackEscape: if reg B is not a live stack ptr, pc = A
	OpStackVerify // CheckStackEscape: trap if dst (reg C) is off-stack; B = ptr

	// Superinstructions: the compiler peepholes the hottest dynamic opcode
	// pairs (measured over the corpus) into single dispatches. Each one is
	// exactly its two constituents executed in sequence — a fusion is only
	// legal when no jump target falls between the pair, which the compiler
	// guarantees by tracking the highest label it has handed out.
	OpJumpTrue       // if truthy(reg B): pc = A (an If condition "!x")
	OpJumpBack       // loop tail: back-edge charge, then pc = A (past the head's OpBackEdge)
	OpLoadConv       // reg A = convert(load(reg B, Types[C]), Convs[D])
	OpStepLoadLocal  // step (pos D), then reg A = load(base+B, Types[C])
	OpStoreLocalStep // store(base+A, Types[C], reg B), then step (pos D)
	OpConvStoreLocal // store(base+A, Types[D], convert(reg B, Convs[C]))
	OpBinAddrMem     // reg A = deref binop(reg B, reg C, Bins[D]); size Bins[D].MemSize
	OpBinCheck       // verdict of Checks[A] on binop(reg B, reg C, Bins[D])
	OpCheckStep      // verdict of Checks[C] on reg B, then step (pos D)
	OpStepCheckBegin // step (pos D), then count/record Checks[C] in flight
	// Field access through a pointer (p->f), the field offset folded in.
	OpLoadField  // reg A = load(reg B + C, Types[D])
	OpStoreField // store(reg A + D, Types[C], reg B)

	// Integer and pointer forms. The compiler emits one of these in place
	// of the opcode it names when the proven register kinds or the static
	// types make the generic form's kind switch dead: "integer" operands
	// are VInt registers or int loads, "int-like" ones VInt or VPtr
	// registers (both keep their AsInt value in the data bank), "pointer"
	// ones VPtr registers. Integer forms read and write only the data bank;
	// an integer binop runs Bins[...].IOp. Operands are those of the named
	// opcode unless stated. The fused integer and pointer forms have no
	// generic twin: an operand whose kind is not proven runs the unfused
	// sequence instead.
	OpLoadLocalI             // OpLoadLocal of an int
	OpStepLoadLocalI         // OpStepLoadLocal of an int
	OpStoreLocalI            // OpStoreLocal of an int from an int-like reg B
	OpStoreLocalStepI        // OpStoreLocalStep of an int from an int-like reg B
	OpConvertI               // OpConvert to an int type from an int-like reg B
	OpLoadConvI              // OpLoadConv of an int load to an int type
	OpBinI                   // OpBin, integer operands
	OpBinConstI              // reg A = binop(integer reg B, Consts[C], Bins[D])
	OpJumpBinFalseI          // if binop(reg B, reg C, Bins[D]) == 0: pc = A; integer operands
	OpJumpBinConstFalseI     // if binop(reg B, Consts[C], Bins[D]) == 0: pc = A; integer reg B
	OpLoadLocalBinI          // reg A = binop(integer reg A, int load(base+B, Types[C]), Bins[D])
	OpLoadLocalBinConstI     // reg A = binop(int load(base+B, Types[C]), Bins[D].CI, Bins[D])
	OpLoadLocal2BinI         // reg A = binop(int load(base+B), int load(base+C), Bins[D])
	OpStepLoadLocalBinConstI // step (pos D), reg A = binop(int load(base+B), Bins[C].CI, Bins[C])
	OpJumpFalseI             // OpJumpFalse on an int-like reg B
	OpJumpTrueI              // OpJumpTrue on an int-like reg B
	OpJumpFalseStepI         // if reg B == 0: pc = A; else step (pos C); int-like reg B
	OpPtrAdd                 // pointer reg A (== B) += (int-like reg C)*Bins[D].Esz
	OpPtrAddConst            // pointer reg A (== B) += Consts[C] bytes
	OpLoadLocalPtrAdd        // pointer reg A += load(base+B, int Types[C])*Bins[D].Esz
	OpLoadI                  // OpLoad of an int through pointer reg B
	OpStoreI                 // OpStore of an int-like reg B through pointer reg A
	OpLoadLocal2PtrAdd       // reg A = pointer load(base+B) + int load(base+C)*Bins[D].Esz
	OpLoadLocalPtrAddConst   // reg A = pointer load(base+B, Types[C]) + Consts[D] bytes
	OpLoadFieldI             // OpLoadField of an int through pointer reg B
	OpStoreFieldI            // OpStoreField of an int-like reg B through pointer reg A

	NumOps // number of opcodes
)

// IntOp is the operation an integer-typed BinInfo performs on two VInt
// operands, with the operand signedness folded in (0: none, the operation
// is not an integer one).
type IntOp uint8

// Integer operations.
const (
	INone IntOp = iota
	IAdd
	ISub
	IMul
	IDivS
	IDivU
	IRemS
	IRemU
	IShl
	IShrS
	IShrU
	IAnd
	IOr
	IXor
	IEq
	INe
	ILt
	IGt
	ILe
	IGe
)

var opNames = [...]string{
	"step", "backedge", "jump", "jumpfalse", "jumpeq", "return",
	"const", "fconst", "str", "fnaddr",
	"addrlocal", "addrglobal", "addrmem", "fieldoff", "addrof",
	"load", "store", "loadlocal", "storelocal", "loadglobal", "storeglobal", "aggcopy",
	"convert", "bin", "un",
	"call", "callnamed", "callptr",
	"checkbegin", "check", "stacktest", "stackverify",
	"jumptrue", "jumpback", "loadconv",
	"steploadlocal", "storelocalstep", "convstorelocal",
	"binaddrmem", "bincheck", "checkstep", "stepcheckbegin",
	"loadfield", "storefield",
	"loadlocal.i", "steploadlocal.i", "storelocal.i", "storelocalstep.i",
	"convert.i", "loadconv.i",
	"bin.i", "binconst.i", "jumpbinfalse.i", "jumpbinconstfalse.i",
	"loadlocalbin.i", "loadlocalbinconst.i", "loadlocal2bin.i", "steploadlocalbinconst.i",
	"jumpfalse.i", "jumptrue.i", "jumpfalsestep.i",
	"ptradd", "ptraddconst", "loadlocalptradd",
	"load.i", "store.i", "loadlocal2ptradd", "loadlocalptraddconst",
	"loadfield.i", "storefield.i",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// AddrOf cases (operand C of OpAddrOf).
const (
	AddrPlain = iota // SAFE/SEQ: keep the home bounds
	AddrWild         // WILD: make the block wild, base = block address
	AddrRtti         // RTTI: attach the static type (Types[D])
)

// Instr is one bytecode instruction: an opcode and up to four operands.
type Instr struct {
	Op         Op
	A, B, C, D int32
}

// ConvInfo is one interned conversion (Cast or implicit assignment
// conversion): the occurrence types, whether the cast was trusted, and
// the pointer kinds the conversion dispatches on (Safe for a non-pointer
// type). The compiler resolves the kinds once, so executing the
// conversion never queries the qualifier graph.
type ConvInfo struct {
	From, To         *ctypes.Type
	Trusted          bool
	FromKind, ToKind qual.Kind
	// IntSh is normShift of an integer To and IntSigned its signedness
	// (OpConvertI, OpLoadConvI).
	IntSh     uint8
	IntSigned bool
}

// NewConvInfo describes the conversion from `from` to `to` under lay.
func NewConvInfo(lay Layout, from, to *ctypes.Type, trusted bool) ConvInfo {
	cv := ConvInfo{From: from, To: to, Trusted: trusted,
		FromKind: ptrKind(lay, from), ToKind: ptrKind(lay, to)}
	if to.IsInteger() {
		cv.IntSh, cv.IntSigned = normShift(to.Size), to.Signed
	}
	return cv
}

// normShift is the shift that truncates a 64-bit integer to size bytes
// and re-extends it ((i<<sh)>>sh, arithmetic for signed types): 0 for
// sizes the interpreter does not truncate.
func normShift(size int) uint8 {
	switch size {
	case 1, 2, 4:
		return uint8(64 - 8*size)
	}
	return 0
}

// ptrKind is lay's pointer kind of t, Safe for a non-pointer.
func ptrKind(lay Layout, t *ctypes.Type) qual.Kind {
	if t.IsPointer() {
		return lay.KindOf(t)
	}
	return qual.Safe
}

// BinInfo is one interned binary operation with everything evalBinOp
// derives from the node precomputed.
type BinInfo struct {
	Op  cil.Op
	Esz int64 // element size for pointer arithmetic (AddPI/SubPI/SubPP)
	// Result-type facts: IsInt/Size/TySigned drive normInt; OpSigned is
	// the signedness used by div/rem/shift/compare ("not an int type or a
	// signed one"); F32 narrows float results.
	IsInt    bool
	Size     int
	TySigned bool
	OpSigned bool
	F32      bool
	// CI is the folded constant RHS of OpLoadLocalBinConstI and
	// OpStepLoadLocalBinConstI; MemSize the dereference size of
	// OpBinAddrMem; LTy/RTy the Types indices of the operand loads folded
	// into OpLoadLocal2BinI, OpLoadLocal2PtrAdd and
	// OpStepLoadLocalBinConstI. Zero (and unused) elsewhere — variants are
	// interned as distinct BinInfos.
	CI       int64
	MemSize  int32
	LTy, RTy int32
	// IOp is the operation on two VInt operands of an integer-typed
	// BinOp; NSh the shift that normalizes its result to Size bytes
	// (0 when no truncation applies). Both derive from the fields above.
	IOp IntOp
	NSh uint8
}

// UnInfo is one interned unary operation.
type UnInfo struct {
	Op     cil.Op
	Size   int
	Signed bool
}

// CallInfo is one interned call site. Arguments are evaluated into the
// NArgs consecutive registers starting at ArgBase before the call opcode
// executes (already converted to parameter types for direct calls).
type CallInfo struct {
	// Fn/FC name a defined function (OpCallFn); FC is linked after all
	// functions compile.
	Fn *cil.Func
	FC *FuncCode
	// Name is the callee for OpCallNamed (builtin wrapper or undefined).
	Name    string
	ArgBase int32
	NArgs   int32
	// ArgTypes are the argument occurrence types (OpCallPtr converts to
	// the target's parameter types at run time, like the tree's callPtr).
	ArgTypes []*ctypes.Type
}

// FuncCode is the compiled form of one function.
type FuncCode struct {
	Fn      *cil.Func
	Code    []Instr
	NumRegs int

	// FrameSize and ParamOffs come from FrameLayout: identical to the
	// frame the tree backend builds, so stack addresses match exactly.
	FrameSize uint32
	ParamOffs []uint32
	// ParamTys indexes each parameter's type in Types, so OpCallFn spills
	// arguments through the same descriptors as a store.
	ParamTys []int32

	// Pools. TySizes[i] caches Sizeof(Types[i]) so the shadow-policy hook
	// needs no layout call on the load path; TyDescs[i] resolves the
	// type's memory representation once, at compile time.
	Consts  []int64
	Floats  []float64
	Strs    []string
	Names   []string
	Types   []*ctypes.Type
	TySizes []int32
	TyDescs []TyDesc
	Poss    []diag.Pos
	Convs   []ConvInfo
	Bins    []BinInfo
	Uns     []UnInfo
	Calls   []CallInfo
	Checks  []*cil.Check
}

// Module is a compiled program: one FuncCode per function of the program
// plus the global-variable index table the executor binds to addresses once
// at machine construction.
type Module struct {
	Prog   *cil.Program
	Funcs  []*FuncCode
	ByFunc map[*cil.Func]*FuncCode
	// Globals lists every global referenced by compiled code; OpAddrGlobal
	// operand B indexes it (the machine resolves each to an address once).
	Globals []*cil.Var
}
