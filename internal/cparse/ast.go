package cparse

import (
	"gocured/internal/ctypes"
	"gocured/internal/diag"
)

// This file defines the abstract syntax tree produced by the parser. Types
// are resolved during parsing (the parser maintains typedef and struct-tag
// scopes, as any C parser must to disambiguate declarations), so AST nodes
// refer to *ctypes.Type directly.

// Node is the interface of all AST nodes.
type Node interface {
	Pos() diag.Pos
}

// ---- Expressions ----

// Expr is the interface of expression nodes. Ty is filled in by sema.
type Expr interface {
	Node
	Type() *ctypes.Type
	SetType(*ctypes.Type)
}

type exprBase struct {
	P  diag.Pos
	Ty *ctypes.Type
}

func (e *exprBase) Pos() diag.Pos          { return e.P }
func (e *exprBase) Type() *ctypes.Type     { return e.Ty }
func (e *exprBase) SetType(t *ctypes.Type) { e.Ty = t }

// IntLit is an integer or character literal.
type IntLit struct {
	exprBase
	Val int64
}

// FloatLit is a floating literal.
type FloatLit struct {
	exprBase
	Val float64
}

// StrLit is a string literal (value without the terminating NUL; the NUL is
// materialized when the literal is laid out in memory).
type StrLit struct {
	exprBase
	Val string
}

// Ident is a name reference; sema resolves Sym.
type Ident struct {
	exprBase
	Name string
	Sym  *Symbol
}

// UnaryOp enumerates unary operators.
type UnaryOp int

const (
	Neg    UnaryOp = iota // -
	Not                   // !
	BitNot                // ~
	Deref                 // *
	AddrOf                // &
	PreInc
	PreDec
	PostInc
	PostDec
)

var unaryNames = [...]string{"-", "!", "~", "*", "&", "++pre", "--pre", "++post", "--post"}

func (op UnaryOp) String() string { return unaryNames[op] }

// Unary is a unary operation.
type Unary struct {
	exprBase
	Op UnaryOp
	X  Expr
}

// BinaryOp enumerates binary operators.
type BinaryOp int

const (
	Add BinaryOp = iota
	Sub
	Mul
	Div
	Rem
	Shl
	Shr
	Lt
	Gt
	Le
	Ge
	Eq
	Ne
	BitAnd
	BitOr
	BitXor
	LogAnd
	LogOr
)

var binaryNames = [...]string{"+", "-", "*", "/", "%", "<<", ">>", "<", ">",
	"<=", ">=", "==", "!=", "&", "|", "^", "&&", "||"}

func (op BinaryOp) String() string { return binaryNames[op] }

// Binary is a binary operation.
type Binary struct {
	exprBase
	Op   BinaryOp
	X, Y Expr
}

// Assign is an assignment; Op is the compound operator (Add for +=) or -1
// for plain '='.
type Assign struct {
	exprBase
	Op   BinaryOp // -1 for plain assignment
	L, R Expr
}

// Cond is the ?: operator.
type Cond struct {
	exprBase
	C, T, F Expr
}

// Cast is an explicit or implicit conversion. Implicit casts are inserted
// by sema so that the pointer-kind inference sees every conversion.
// Trusted marks __trusted_cast sites (controlled loss of soundness).
type Cast struct {
	exprBase
	To       *ctypes.Type
	X        Expr
	Implicit bool
	Trusted  bool
}

// Call is a function call; Fn is an expression of function-pointer type
// (direct calls are idents of function type, decayed by sema).
type Call struct {
	exprBase
	Fn   Expr
	Args []Expr
}

// Index is array subscripting e1[e2].
type Index struct {
	exprBase
	X, I Expr
}

// Member is a field access: X.Name or X->Name when Arrow is set.
type Member struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
	Field *ctypes.Field // resolved by sema
}

// SizeofExpr is sizeof(expr) or sizeof(type); exactly one of X, OfType set.
type SizeofExpr struct {
	exprBase
	X      Expr
	OfType *ctypes.Type
}

// Comma is the comma operator.
type Comma struct {
	exprBase
	X, Y Expr
}

// ---- Statements ----

// Stmt is the interface of statement nodes.
type Stmt interface{ Node }

type stmtBase struct{ P diag.Pos }

func (s *stmtBase) Pos() diag.Pos { return s.P }

// Block is a { ... } compound statement with its own scope.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// ExprStmt is an expression evaluated for effect.
type ExprStmt struct {
	stmtBase
	X Expr
}

// DeclStmt declares local variables.
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// If is a conditional.
type If struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is a while loop.
type While struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// DoWhile is a do-while loop.
type DoWhile struct {
	stmtBase
	Body Stmt
	Cond Expr
}

// For is a for loop; any of Init/Cond/Post may be nil. Init may be a
// DeclStmt (C99-style declarations in for).
type For struct {
	stmtBase
	Init Stmt // ExprStmt, DeclStmt, or nil
	Cond Expr
	Post Expr
	Body Stmt
}

// Return returns from a function; X may be nil.
type Return struct {
	stmtBase
	X Expr
}

// Break exits the innermost loop or switch.
type Break struct{ stmtBase }

// Continue continues the innermost loop.
type Continue struct{ stmtBase }

// SwitchCase is one case (or default when IsDefault) of a switch.
type SwitchCase struct {
	Val       int64
	IsDefault bool
	Stmts     []Stmt
}

// Switch is a switch statement; cases do not fall through implicitly in the
// lowered form, but the parser preserves C fallthrough by leaving the case
// bodies as parsed (lowering handles it).
type Switch struct {
	stmtBase
	X     Expr
	Cases []*SwitchCase
}

// Empty is the empty statement ';'.
type Empty struct{ stmtBase }

// ---- Declarations and top level ----

// StorageClass of a declaration.
type StorageClass int

const (
	SCNone StorageClass = iota
	SCExtern
	SCStatic
	SCTypedef
)

// Initializer is either a single expression or a brace list.
type Initializer struct {
	P      diag.Pos
	Expr   Expr           // scalar initializer
	List   []*Initializer // brace list
	IsList bool
}

// Pos returns the initializer's source position.
func (in *Initializer) Pos() diag.Pos { return in.P }

// VarDecl declares one variable (global or local).
type VarDecl struct {
	P       diag.Pos
	Name    string
	Type    *ctypes.Type
	Storage StorageClass
	Init    *Initializer // may be nil
	Sym     *Symbol      // filled by sema
}

// Pos returns the declaration's position.
func (d *VarDecl) Pos() diag.Pos { return d.P }

// FuncDef is a function definition (or prototype when Body is nil).
type FuncDef struct {
	P       diag.Pos
	Name    string
	Type    *ctypes.Type // Func kind
	Storage StorageClass
	Body    *Block // nil for prototypes
	Sym     *Symbol
}

// Pos returns the definition's position.
func (d *FuncDef) Pos() diag.Pos { return d.P }

// WrapperPragma records #pragma ccuredWrapperOf("wrapper", "wrapped").
type WrapperPragma struct {
	P       diag.Pos
	Wrapper string
	Wrapped string
}

// File is one parsed translation unit.
type File struct {
	Name     string
	Funcs    []*FuncDef
	Globals  []*VarDecl
	Wrappers []*WrapperPragma
	// Structs lists every struct/union defined in the file, in definition
	// order (the RTTI hierarchy is built from these); each struct's Index
	// is its position here.
	Structs []*ctypes.StructInfo
}

// SymbolKind classifies symbols.
type SymbolKind int

const (
	SymVar SymbolKind = iota
	SymFunc
	SymEnumConst
)

// Symbol is a named program entity. Globals and functions are shared across
// the unit; locals are per-function.
type Symbol struct {
	Name    string
	Kind    SymbolKind
	Type    *ctypes.Type
	Global  bool
	Param   bool
	EnumVal int64
	// AddrType is the shared pointer-type occurrence for &sym, so every
	// address-of expression on this symbol shares one qualifier node
	// (CCured associates one qualifier with the address of each variable).
	// Created on demand by sema.
	AddrType *ctypes.Type
	// AddrTaken is set by sema when &sym occurs.
	AddrTaken bool
	// Def points at the defining FuncDef for SymFunc.
	Def *FuncDef
	// VDecl points at the defining VarDecl for SymVar globals.
	VDecl *VarDecl
}
