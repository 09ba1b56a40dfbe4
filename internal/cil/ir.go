// Package cil defines gocured's CIL-like intermediate representation and the
// lowering from the checked AST. As in the original CIL, expressions are
// side-effect free: assignments, calls, and the short-circuit operators are
// lowered to instructions with temporaries. Lvalues are a base (variable or
// memory) plus an offset chain of fields and indices.
package cil

import (
	"fmt"

	"gocured/internal/ctypes"
	"gocured/internal/diag"
)

// ---- Variables ----

// Var is a CIL variable: global, parameter, local, or compiler temporary.
type Var struct {
	Name   string
	Type   *ctypes.Type
	Global bool
	Param  bool
	Temp   bool
	ID     int // unique within the program (globals) or function (locals)

	// AddrType is the shared pointer occurrence for &v (carried over from
	// sema so every address-of site shares one qualifier node).
	AddrType *ctypes.Type
	// AddrTaken records whether the variable's address escapes.
	AddrTaken bool
}

func (v *Var) String() string { return v.Name }

// ---- Expressions ----

// Expr is a pure (side-effect free) expression.
type Expr interface {
	Type() *ctypes.Type
}

// Const is an integer constant.
type Const struct {
	I  int64
	Ty *ctypes.Type
}

// Type returns the constant's type.
func (e *Const) Type() *ctypes.Type { return e.Ty }

// FConst is a floating constant.
type FConst struct {
	F  float64
	Ty *ctypes.Type
}

// Type returns the constant's type.
func (e *FConst) Type() *ctypes.Type { return e.Ty }

// StrConst is the address of an interned string literal.
type StrConst struct {
	S  string
	Ty *ctypes.Type // char*
}

// Type returns the literal's pointer type.
func (e *StrConst) Type() *ctypes.Type { return e.Ty }

// FnConst is the address of a named function.
type FnConst struct {
	Name string
	Ty   *ctypes.Type // pointer to function
}

// Type returns the function pointer type.
func (e *FnConst) Type() *ctypes.Type { return e.Ty }

// SizeOf is a symbolic sizeof: its value depends on the layout (curing
// grows types containing fat pointers, so the instrumented program must
// evaluate sizeof against the cured layout — this is CCured's rewriting of
// sizeof expressions).
type SizeOf struct {
	Of *ctypes.Type
	Ty *ctypes.Type // result type (unsigned int)
}

// Type returns the result type.
func (e *SizeOf) Type() *ctypes.Type { return e.Ty }

// Lval reads an lvalue.
type Lval struct {
	LV *Lvalue
}

// Type returns the lvalue's type.
func (e *Lval) Type() *ctypes.Type { return e.LV.Ty }

// AddrOf takes the address of an lvalue.
type AddrOf struct {
	LV *Lvalue
	Ty *ctypes.Type
}

// Type returns the resulting pointer type.
func (e *AddrOf) Type() *ctypes.Type { return e.Ty }

// Op enumerates CIL operators. Pointer arithmetic is distinguished from
// integer arithmetic (as in CIL's PlusPI/MinusPI/MinusPP).
type Op int

// Operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpShl
	OpShr
	OpBitAnd
	OpBitOr
	OpBitXor
	OpLt
	OpGt
	OpLe
	OpGe
	OpEq
	OpNe
	OpAddPI // pointer + integer (element units)
	OpSubPI // pointer - integer
	OpSubPP // pointer - pointer (result: element count)
	OpNeg
	OpNot
	OpBitNot
)

var opNames = [...]string{"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
	"<", ">", "<=", ">=", "==", "!=", "+p", "-p", "-pp", "neg", "!", "~"}

func (o Op) String() string { return opNames[o] }

// BinOp is a binary operation.
type BinOp struct {
	Op   Op
	A, B Expr
	Ty   *ctypes.Type
}

// Type returns the result type.
func (e *BinOp) Type() *ctypes.Type { return e.Ty }

// UnOp is a unary operation (OpNeg, OpNot, OpBitNot).
type UnOp struct {
	Op Op
	X  Expr
	Ty *ctypes.Type
}

// Type returns the result type.
func (e *UnOp) Type() *ctypes.Type { return e.Ty }

// Cast converts X to type To. Every conversion in the program is explicit
// in the IR; the inference engine consumes these nodes.
type Cast struct {
	To       *ctypes.Type
	X        Expr
	Implicit bool
	Trusted  bool
	Pos      diag.Pos
}

// Type returns the destination type.
func (e *Cast) Type() *ctypes.Type { return e.To }

// ---- Lvalues ----

// OffElem is one step of an offset chain: exactly one of Field, Index set.
type OffElem struct {
	Field *ctypes.Field
	Index Expr // nil for field steps
}

// Lvalue designates an object: a base (variable or dereferenced pointer
// expression) plus an offset chain.
type Lvalue struct {
	Var *Var // base variable, or
	Mem Expr // dereferenced pointer expression (exactly one set)

	Offset []OffElem
	Ty     *ctypes.Type // type of the designated object
}

// VarLV makes an lvalue designating variable v.
func VarLV(v *Var) *Lvalue { return &Lvalue{Var: v, Ty: v.Type} }

// MemLV makes an lvalue designating *p.
func MemLV(p Expr) *Lvalue { return &Lvalue{Mem: p, Ty: p.Type().Elem} }

// WithField extends lv with a field step.
func (lv *Lvalue) WithField(f *ctypes.Field) *Lvalue {
	out := *lv
	out.Offset = append(append([]OffElem(nil), lv.Offset...), OffElem{Field: f})
	out.Ty = f.Type
	return &out
}

// WithIndex extends lv with an index step (for array-typed lvalues).
func (lv *Lvalue) WithIndex(i Expr) *Lvalue {
	out := *lv
	out.Offset = append(append([]OffElem(nil), lv.Offset...), OffElem{Index: i})
	out.Ty = lv.Ty.Elem
	return &out
}

// ---- Instructions ----

// Instr is a side-effecting instruction.
type Instr interface {
	instr()
	Position() diag.Pos
}

type instrBase struct{ Pos diag.Pos }

func (instrBase) instr()               {}
func (i instrBase) Position() diag.Pos { return i.Pos }

// Set stores RHS into LV.
type Set struct {
	instrBase
	LV  *Lvalue
	RHS Expr
}

// Call invokes Fn with Args, optionally storing the result in Result.
type Call struct {
	instrBase
	Result *Lvalue // may be nil
	Fn     Expr    // FnConst for direct calls, otherwise a function pointer
	Args   []Expr
}

// CheckKind enumerates the run-time checks CCured inserts (Appendix A).
type CheckKind int

// Check kinds.
const (
	// CheckNull: pointer (SAFE) must be non-null.
	CheckNull CheckKind = iota
	// CheckSeq: SEQ pointer read/write: non-null base, b <= p <= e-size.
	CheckSeq
	// CheckSeqArith is a no-op marker in CCured (arith needs no check until
	// dereference) retained for statistics.
	CheckSeqArith
	// CheckWild: WILD pointer access: bounds from the area header.
	CheckWild
	// CheckWildRead: tag check when reading a pointer via WILD.
	CheckWildRead
	// CheckWildWrite: tag update when writing via WILD.
	CheckWildWrite
	// CheckRtti: isSubtype(x.t, rttiOf(T)) for RTTI downcasts.
	CheckRtti
	// CheckStackEscape: a write must not store a stack pointer to the heap.
	CheckStackEscape
	// CheckSeqToSafe: converting SEQ to SAFE: null or fully in bounds.
	CheckSeqToSafe
	// CheckNotStackPtr is used for returns of pointers.
	CheckNotStackPtr
	// CheckVerifyNul: wrapper helper __verify_nul (string NUL-termination).
	CheckVerifyNul
	// CheckIndex: direct array indexing against the static array length.
	CheckIndex
)

// NumCheckKinds is the number of check kinds; dense per-kind counter
// arrays (interp.KindCounts, the check cost table) are indexed by CheckKind
// and sized by this.
const NumCheckKinds = int(CheckIndex) + 1

var checkNames = [...]string{"null", "seq", "seq-arith", "wild", "wild-read",
	"wild-write", "rtti", "stack-escape", "seq2safe", "not-stack", "verify-nul",
	"index"}

func (k CheckKind) String() string { return checkNames[k] }

// Check is a run-time check instruction inserted by the instrumenter. Args
// are check-kind specific (typically the pointer lvalue being checked).
type Check struct {
	instrBase
	Kind CheckKind
	// Ptr is the pointer value under check (for CheckIndex: the index).
	Ptr Expr
	// Size is the access size in bytes (bounds checks); for CheckIndex it
	// is the static array length.
	Size int
	// RttiTarget is the destination type for CheckRtti.
	RttiTarget *ctypes.Type
	// DstLV is the destination lvalue for CheckStackEscape.
	DstLV *Lvalue
	// Site is the 1-based static-site ID assigned after curing and
	// optimization (instrument.AssignSites): every check at the same
	// position × kind shares one ID. 0 means unassigned. The flight
	// recorder records events by site ID so the hot path never renders
	// position strings.
	Site int32
}

// ---- Statements ----

// Stmt is a structured control-flow statement.
type Stmt interface{ stmt() }

type stmtBase struct{}

func (stmtBase) stmt() {}

// Block is a statement sequence.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// SInstr wraps one instruction as a statement.
type SInstr struct {
	stmtBase
	Ins Instr
}

// If is a conditional.
type If struct {
	stmtBase
	Cond Expr
	Then *Block
	Else *Block // may be nil
}

// Loop is an infinite loop exited by Break; all C loops lower to this form.
// Post (possibly nil) runs after the body completes normally or via
// Continue, before control returns to the top — this realizes the `for`
// post expression and the do-while trailing test without goto.
type Loop struct {
	stmtBase
	Body *Block
	Post *Block
}

// Break exits the innermost Loop or Switch.
type Break struct{ stmtBase }

// Continue re-enters the innermost Loop.
type Continue struct{ stmtBase }

// Return exits the function; X may be nil.
type Return struct {
	stmtBase
	X   Expr
	Pos diag.Pos
}

// SwitchCase is one arm of a Switch. Execution falls through to the next
// case unless a Break intervenes (C semantics, preserved in the IR).
type SwitchCase struct {
	Val       int64
	IsDefault bool
	Body      []Stmt
}

// Switch dispatches on an integer.
type Switch struct {
	stmtBase
	X     Expr
	Cases []*SwitchCase
}

// ---- Initializers ----

// Init is a lowered static initializer for a global.
type Init struct {
	// Exactly one of the following forms:
	Zero   bool
	Expr   Expr    // constant scalar (Const/FConst/StrConst/FnConst/AddrOf global, possibly under Cast)
	List   []*Init // aggregate
	IsList bool
}

// ---- Program ----

// Global is a global variable with its initializer.
type Global struct {
	Var  *Var
	Init *Init // nil means zero-initialized
}

// Func is a lowered function.
type Func struct {
	Name   string
	Type   *ctypes.Type // Func kind
	Params []*Var
	Locals []*Var
	Body   *Block
	Pos    diag.Pos
}

// Wrapper records a ccuredWrapperOf pragma.
type Wrapper struct {
	Wrapper string
	Wrapped string
}

// Program is a whole lowered translation unit.
type Program struct {
	Globals  []*Global
	Funcs    []*Func
	FuncMap  map[string]*Func
	Externs  []*Var // declared, undefined functions (library boundary)
	Structs  []*ctypes.StructInfo
	Wrappers []*Wrapper
	// IDs numbers the program's type occurrences for inference.
	IDs ctypes.IDs
}

// Lookup returns the defined function with the given name, or nil.
func (p *Program) Lookup(name string) *Func { return p.FuncMap[name] }

// NewTemp creates a fresh temporary local in f.
func (f *Func) NewTemp(ty *ctypes.Type) *Var {
	v := &Var{
		Name: fmt.Sprintf("__t%d", len(f.Locals)),
		Type: ty,
		Temp: true,
		ID:   len(f.Locals) + len(f.Params),
	}
	f.Locals = append(f.Locals, v)
	return v
}
