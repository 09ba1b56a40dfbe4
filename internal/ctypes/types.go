// Package ctypes represents C types for the gocured pipeline: construction,
// ILP32 layout (sizeof/alignof/field offsets), printing, and the physical
// type equality / physical subtyping relations from §3.1 of "CCured in the
// Real World" (PLDI 2003).
//
// Pointer and array type occurrences carry qualifier node identifiers
// (assigned by the inference engine); a typedef shares one Type value, so a
// typedef'd pointer has a single program-wide qualifier, exactly as in CCured.
package ctypes

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Word is the machine word size in bytes. The paper's appendix assumes
// 4-byte words (ILP32); all layout and tag computations use it.
const Word = 4

// Kind discriminates the C type constructors.
type Kind int

const (
	// Void is the C void type. For physical subtyping it behaves as the
	// empty structure: every type is a physical subtype of void.
	Void Kind = iota
	// Int covers all integer types (including char, enums and _Bool),
	// distinguished by Size and Signed.
	Int
	// Float covers float (Size 4) and double (Size 8).
	Float
	// Ptr is a pointer type; Elem is the pointee.
	Ptr
	// Array is a constant-size array; Elem is the element, Len the count.
	Array
	// Struct is a struct or union type; SU carries the definition.
	Struct
	// Func is a function type; Fn carries the signature. Only pointers to
	// Func are first-class values.
	Func
)

// Type is one C type occurrence. Pointer and array occurrences are distinct
// values (each syntactic `*` in the program has its own Type), while struct
// definitions are shared through SU.
type Type struct {
	Kind   Kind
	Size   int  // Int, Float: size in bytes
	Signed bool // Int: signedness
	Elem   *Type
	Len    int // Array: element count; -1 if incomplete ([])
	SU     *StructInfo
	Fn     *FuncInfo

	// Ann records a programmer-supplied pointer-kind annotation
	// (__SAFE/__SEQ/__WILD/__RTTI) on this occurrence.
	Ann KindAnn
	// SplitAnnot records a programmer-supplied __SPLIT/__NOSPLIT
	// annotation on this occurrence.
	SplitAnnot SplitAnn

	// DecayOf links a decayed pointer occurrence back to the array
	// occurrence it came from; the inference unifies their qualifier
	// nodes (the decayed pointer IS the array pointer).
	DecayOf *Type
	decayed *Type // cached Decay() result, one per array occurrence
}

// KindAnn is a source-level pointer-kind annotation.
type KindAnn uint8

// Pointer-kind annotations.
const (
	AnnNone KindAnn = iota
	AnnSafe
	AnnSeq
	AnnWild
	AnnRtti
)

// SplitAnn is a source-level SPLIT/NOSPLIT annotation.
type SplitAnn uint8

// Split annotations.
const (
	SAnnNone SplitAnn = iota
	SAnnSplit
	SAnnNoSplit
)

// StructInfo is the shared definition of a struct or union.
type StructInfo struct {
	Name     string // tag name; may be "" for anonymous
	Union    bool
	Fields   []*Field
	Complete bool

	// ID is a unique identifier assigned at creation, usable as a map key
	// for hierarchy construction.
	ID int

	size, align int
	laidOut     bool
}

// Field is one member of a struct or union.
type Field struct {
	Name   string
	Type   *Type
	Offset int // byte offset, filled in by layout
	// Parent is the defining struct (set by Define).
	Parent *StructInfo

	// AddrType is the shared pointer-type occurrence used for every &s.f
	// expression on this field, so that all of them share one qualifier
	// node (CCured associates one qualifier with the address of each
	// structure field). Created on demand by sema.
	AddrType *Type
}

// FuncInfo is a function signature.
type FuncInfo struct {
	Ret      *Type
	Params   []*Type
	Names    []string // parameter names, parallel to Params (may be empty)
	Variadic bool
}

// nextStructID is atomic so that independent translation units can be
// compiled concurrently (the pipeline Runner fans Build out over a worker
// pool) while struct IDs stay process-unique.
var nextStructID atomic.Int64

// NewStruct creates a fresh, incomplete struct or union definition.
func NewStruct(name string, union bool) *StructInfo {
	return &StructInfo{Name: name, Union: union, ID: int(nextStructID.Add(1))}
}

// Define completes a struct definition with its fields and computes layout.
func (s *StructInfo) Define(fields []*Field) {
	s.Fields = fields
	s.Complete = true
	s.laidOut = false
	for _, f := range fields {
		f.Parent = s
	}
	s.layout()
}

// FieldByName returns the field with the given name, or nil.
func (s *StructInfo) FieldByName(name string) *Field {
	for _, f := range s.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Constructors for the basic types. Each call returns a fresh value so that
// distinct occurrences can carry distinct qualifier nodes.

// VoidType returns a fresh void type.
func VoidType() *Type { return &Type{Kind: Void} }

// IntType returns a fresh integer type of the given byte size and signedness.
func IntType(size int, signed bool) *Type { return &Type{Kind: Int, Size: size, Signed: signed} }

// CharType returns a fresh char (signed, 1 byte).
func CharType() *Type { return IntType(1, true) }

// IntT returns a fresh int (signed, 4 bytes).
func IntT() *Type { return IntType(4, true) }

// UIntT returns a fresh unsigned int.
func UIntT() *Type { return IntType(4, false) }

// FloatType returns a fresh floating type of the given byte size (4 or 8).
func FloatType(size int) *Type { return &Type{Kind: Float, Size: size} }

// PointerTo returns a fresh pointer type to elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: Ptr, Elem: elem} }

// ArrayOf returns a fresh array type of n elements of elem.
func ArrayOf(elem *Type, n int) *Type { return &Type{Kind: Array, Elem: elem, Len: n} }

// StructType returns a fresh type occurrence referring to the definition su.
func StructType(su *StructInfo) *Type { return &Type{Kind: Struct, SU: su} }

// FuncType returns a fresh function type.
func FuncType(ret *Type, params []*Type, names []string, variadic bool) *Type {
	return &Type{Kind: Func, Fn: &FuncInfo{Ret: ret, Params: params, Names: names, Variadic: variadic}}
}

// IsVoid reports whether t is void.
func (t *Type) IsVoid() bool { return t.Kind == Void }

// IsInteger reports whether t is an integer type.
func (t *Type) IsInteger() bool { return t.Kind == Int }

// IsArith reports whether t is an arithmetic (integer or floating) type.
func (t *Type) IsArith() bool { return t.Kind == Int || t.Kind == Float }

// IsPointer reports whether t is a pointer type.
func (t *Type) IsPointer() bool { return t.Kind == Ptr }

// IsScalar reports whether t is arithmetic or a pointer.
func (t *Type) IsScalar() bool { return t.IsArith() || t.IsPointer() }

// IsFuncPtr reports whether t is a pointer to a function type.
func (t *Type) IsFuncPtr() bool { return t.Kind == Ptr && t.Elem.Kind == Func }

// Decay returns the type after array-to-pointer decay. For an array type it
// returns the (cached, per-occurrence) pointer to the element; the DecayOf
// back-link lets the inference unify the two occurrences' qualifier nodes,
// so the array and its decayed pointer share one kind.
func (t *Type) Decay() *Type {
	if t.Kind == Array {
		if t.decayed == nil {
			p := PointerTo(t.Elem)
			p.Ann = t.Ann
			p.SplitAnnot = t.SplitAnnot
			p.DecayOf = t
			t.decayed = p
		}
		return t.decayed
	}
	return t
}

// Sizeof returns the byte size of t under ILP32 layout. Incomplete types
// and function types have size 0.
func Sizeof(t *Type) int {
	switch t.Kind {
	case Void, Func:
		return 0
	case Int, Float:
		return t.Size
	case Ptr:
		return Word
	case Array:
		if t.Len < 0 {
			return 0
		}
		return t.Len * Sizeof(t.Elem)
	case Struct:
		t.SU.layout()
		return t.SU.size
	}
	return 0
}

// Alignof returns the alignment of t in bytes.
func Alignof(t *Type) int {
	switch t.Kind {
	case Void, Func:
		return 1
	case Int, Float:
		return t.Size
	case Ptr:
		return Word
	case Array:
		return Alignof(t.Elem)
	case Struct:
		t.SU.layout()
		return t.SU.align
	}
	return 1
}

func (s *StructInfo) layout() {
	if s.laidOut || !s.Complete {
		return
	}
	s.laidOut = true
	var offsets []int
	offsets, s.size, s.align = Place(s.Fields, s.Union, Sizeof, Alignof)
	for i, f := range s.Fields {
		f.Offset = offsets[i]
	}
}

// Place lays out fields as a struct (each at the next offset aligned for
// its type) or as a union (all at offset 0), under the given size and
// alignment of each field type. It returns the field offsets in field
// order, and the aggregate's size, rounded up to its alignment, which is
// the largest field alignment (1 with no fields). The C layout and the
// kind-aware cured layout both use it, each with its own field sizes.
func Place(fields []*Field, union bool, sizeof, alignof func(*Type) int) (offsets []int, size, align int) {
	offsets = make([]int, len(fields))
	align = 1
	for i, f := range fields {
		a, sz := alignof(f.Type), sizeof(f.Type)
		align = max(align, a)
		if union {
			size = max(size, sz)
			continue
		}
		offsets[i] = alignUp(size, a)
		size = offsets[i] + sz
	}
	return offsets, alignUp(size, align), align
}

func alignUp(off, a int) int {
	if a <= 1 {
		return off
	}
	return (off + a - 1) / a * a
}

// String renders t in C-like syntax (types read inside-out; we use a
// simplified left-to-right rendering adequate for diagnostics).
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Void:
		return "void"
	case Int:
		name := ""
		switch t.Size {
		case 1:
			name = "char"
		case 2:
			name = "short"
		case 4:
			name = "int"
		case 8:
			name = "long long"
		default:
			name = fmt.Sprintf("int%d", t.Size*8)
		}
		if !t.Signed {
			return "unsigned " + name
		}
		return name
	case Float:
		if t.Size == 4 {
			return "float"
		}
		return "double"
	case Ptr:
		return t.Elem.String() + "*"
	case Array:
		if t.Len < 0 {
			return t.Elem.String() + "[]"
		}
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case Struct:
		kw := "struct"
		if t.SU.Union {
			kw = "union"
		}
		if t.SU.Name != "" {
			return kw + " " + t.SU.Name
		}
		return fmt.Sprintf("%s <anon#%d>", kw, t.SU.ID)
	case Func:
		var b strings.Builder
		b.WriteString(t.Fn.Ret.String())
		b.WriteString(" (")
		for i, p := range t.Fn.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.String())
		}
		if t.Fn.Variadic {
			if len(t.Fn.Params) > 0 {
				b.WriteString(", ")
			}
			b.WriteString("...")
		}
		b.WriteString(")")
		return b.String()
	}
	return "<bad type>"
}

// Equal reports structural equality of two types, ignoring qualifier nodes.
// Used for "identical type" cast classification and signature matching.
func Equal(a, b *Type) bool {
	return equal(a, b, make(map[[2]int]bool))
}

func equal(a, b *Type, seen map[[2]int]bool) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Void:
		return true
	case Int:
		return a.Size == b.Size && a.Signed == b.Signed
	case Float:
		return a.Size == b.Size
	case Ptr:
		return equal(a.Elem, b.Elem, seen)
	case Array:
		return a.Len == b.Len && equal(a.Elem, b.Elem, seen)
	case Struct:
		if a.SU == b.SU {
			return true
		}
		key := [2]int{a.SU.ID, b.SU.ID}
		if a.SU.ID > b.SU.ID {
			key = [2]int{b.SU.ID, a.SU.ID}
		}
		if seen[key] {
			return true // coinductive: assume equal while comparing
		}
		seen[key] = true
		if a.SU.Union != b.SU.Union || len(a.SU.Fields) != len(b.SU.Fields) {
			return false
		}
		for i := range a.SU.Fields {
			fa, fb := a.SU.Fields[i], b.SU.Fields[i]
			if fa.Name != fb.Name || !equal(fa.Type, fb.Type, seen) {
				return false
			}
		}
		return true
	case Func:
		fa, fb := a.Fn, b.Fn
		if fa.Variadic != fb.Variadic || len(fa.Params) != len(fb.Params) {
			return false
		}
		if !equal(fa.Ret, fb.Ret, seen) {
			return false
		}
		for i := range fa.Params {
			if !equal(fa.Params[i], fb.Params[i], seen) {
				return false
			}
		}
		return true
	}
	return false
}

// Walk visits t and every type reachable from it (pointee, element, field,
// signature types), calling f on each occurrence exactly once per syntactic
// occurrence. Struct definitions are visited once.
func Walk(t *Type, f func(*Type)) {
	walk(t, f, make(map[*StructInfo]bool))
}

func walk(t *Type, f func(*Type), seen map[*StructInfo]bool) {
	if t == nil {
		return
	}
	f(t)
	switch t.Kind {
	case Ptr, Array:
		walk(t.Elem, f, seen)
	case Struct:
		if seen[t.SU] {
			return
		}
		seen[t.SU] = true
		for _, fl := range t.SU.Fields {
			walk(fl.Type, f, seen)
		}
	case Func:
		walk(t.Fn.Ret, f, seen)
		for _, p := range t.Fn.Params {
			walk(p, f, seen)
		}
	}
}

// OnceWalker applies f to every type reachable from a sequence of roots,
// once per occurrence over the walker's lifetime. Each Walk visits in
// Walk's pre-order, so the first visit of every occurrence happens at the
// same point as in a sequence of fresh Walks; what it skips is exactly the
// repeated visits. An occurrence is skipped only once its whole reachable
// graph has been visited, and an incomplete struct is never marked done.
type OnceWalker struct {
	f       func(*Type)
	state   map[*Type]uint8
	structs map[*StructInfo]bool
}

// Occurrence states of a OnceWalker.
const (
	walkVisited uint8 = 1 + iota // f applied, descent in progress
	walkDone                     // f applied to the whole reachable graph
)

// NewOnceWalker returns a walker that applies f.
func NewOnceWalker(f func(*Type)) *OnceWalker {
	return &OnceWalker{f: f, state: make(map[*Type]uint8), structs: make(map[*StructInfo]bool)}
}

// Walk applies f to every occurrence reachable from t not yet visited.
func (w *OnceWalker) Walk(t *Type) {
	if t == nil {
		return
	}
	switch w.state[t] {
	case walkDone:
		return
	case 0:
		w.state[t] = walkVisited
		w.f(t)
	}
	// A visited occurrence met again mid-walk (through a struct cycle)
	// descends again, as a fresh Walk would: an in-progress function
	// signature may lead to parameters the first descent has not reached.
	switch t.Kind {
	case Ptr, Array:
		w.Walk(t.Elem)
	case Struct:
		if !t.SU.Complete {
			return
		}
		if !w.structs[t.SU] {
			w.structs[t.SU] = true
			for _, fl := range t.SU.Fields {
				w.Walk(fl.Type)
			}
		}
	case Func:
		w.Walk(t.Fn.Ret)
		for _, p := range t.Fn.Params {
			w.Walk(p)
		}
	}
	w.state[t] = walkDone
}
