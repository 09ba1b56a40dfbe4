// Package instrument implements CCured's curing transformation: it computes
// the kind-aware memory layout (fat pointers per Figure 1, compatible split
// layout per Figures 6-7) and inserts the run-time checks of Appendix A as
// explicit IR instructions. The instrumented program together with its
// layout oracle is executed by internal/interp.
package instrument

import (
	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/infer"
	"gocured/internal/qual"
)

// Pointer representation sizes (Figure 1 and §3.2), in bytes:
//
//	SAFE  {p}        1 word
//	RTTI  {p,t}      2 words
//	WILD  {p,b}      2 words
//	SEQ   {p,b,e}    3 words
//
// SPLIT occurrences use the C representation (1 word) with metadata held in
// the parallel shadow structure.
func repWords(k qual.Kind) int {
	switch k {
	case qual.Seq:
		return 3
	case qual.Wild, qual.Rtti:
		return 2
	default:
		return 1
	}
}

// Layout is the kind-aware layout oracle for a cured program. Cure builds
// it before curing begins, laying out every struct of the program once;
// after that a Layout only reads — it, the solved qualifier graph and the
// split result it consults are all frozen — so any number of goroutines
// may query it at once.
type Layout struct {
	res *infer.Result
	// structs holds the cured size and alignment of every program struct,
	// and offsets the cured offset of each of their fields.
	structs map[*ctypes.StructInfo]suLayout
	offsets map[*ctypes.Field]int
}

type suLayout struct{ size, align int }

func newLayout(prog *cil.Program, res *infer.Result) *Layout {
	l := &Layout{
		res:     res,
		structs: make(map[*ctypes.StructInfo]suLayout, len(prog.Structs)),
		offsets: make(map[*ctypes.Field]int),
	}
	for _, su := range prog.Structs {
		l.place(su)
	}
	return l
}

// place computes su's cured layout after that of every struct it holds by
// value. The placeholder stored first ends the recursion for a struct that
// holds itself, which the front end accepts and lays out as empty.
func (l *Layout) place(su *ctypes.StructInfo) {
	if _, ok := l.structs[su]; ok {
		return
	}
	l.structs[su] = suLayout{align: 1}
	for _, f := range su.Fields {
		t := f.Type
		for t.Kind == ctypes.Array {
			t = t.Elem
		}
		if t.Kind == ctypes.Struct {
			l.place(t.SU)
		}
	}
	offsets, size, align := ctypes.Place(su.Fields, su.Union, l.Sizeof, l.Alignof)
	l.structs[su] = suLayout{size: size, align: align}
	for i, f := range su.Fields {
		l.offsets[f] = offsets[i]
	}
}

// KindOf returns the inferred kind of a pointer occurrence.
func (l *Layout) KindOf(t *ctypes.Type) qual.Kind { return l.res.Graph.KindOf(t) }

// IsSplit reports whether the occurrence uses the compatible representation.
func (l *Layout) IsSplit(t *ctypes.Type) bool {
	return l.res.Split != nil && l.res.Split.IsSplit(t)
}

// Sizeof returns the cured size of an occurrence.
func (l *Layout) Sizeof(t *ctypes.Type) int {
	switch t.Kind {
	case ctypes.Ptr:
		if l.IsSplit(t) {
			return ctypes.Word
		}
		return repWords(l.KindOf(t)) * ctypes.Word
	case ctypes.Array:
		if t.Len < 0 {
			return 0
		}
		return t.Len * l.Sizeof(t.Elem)
	case ctypes.Struct:
		if l.IsSplit(t) {
			return ctypes.Sizeof(t)
		}
		return l.placed(t.SU).size
	default:
		return ctypes.Sizeof(t)
	}
}

// Alignof returns the cured alignment of an occurrence.
func (l *Layout) Alignof(t *ctypes.Type) int {
	switch t.Kind {
	case ctypes.Array:
		return l.Alignof(t.Elem)
	case ctypes.Struct:
		if l.IsSplit(t) {
			return ctypes.Alignof(t)
		}
		return l.placed(t.SU).align
	default:
		return ctypes.Alignof(t)
	}
}

// FieldOff returns the cured byte offset of a field. Split structs keep the
// C layout; split inference guarantees every field of a split struct is
// itself split, so the two layouts agree there.
func (l *Layout) FieldOff(f *ctypes.Field) int {
	if f.Parent == nil || l.IsSplit(f.Type) {
		return f.Offset
	}
	off, ok := l.offsets[f]
	if !ok {
		panic("instrument: no cured layout for struct " + f.Parent.Name)
	}
	return off
}

func (l *Layout) placed(su *ctypes.StructInfo) suLayout {
	s, ok := l.structs[su]
	if !ok {
		panic("instrument: no cured layout for struct " + su.Name)
	}
	return s
}

// RawLayout is the uncured layout oracle: C layout, every pointer thin and
// effectively SAFE-shaped (no metadata). Used by the baseline, Purify, and
// Valgrind execution policies.
type RawLayout struct{}

// KindOf always reports Safe: raw pointers have no kinds.
func (RawLayout) KindOf(*ctypes.Type) qual.Kind { return qual.Safe }

// IsSplit always reports false.
func (RawLayout) IsSplit(*ctypes.Type) bool { return false }

// Sizeof returns the C size.
func (RawLayout) Sizeof(t *ctypes.Type) int { return ctypes.Sizeof(t) }

// Alignof returns the C alignment.
func (RawLayout) Alignof(t *ctypes.Type) int { return ctypes.Alignof(t) }

// FieldOff returns the C field offset.
func (RawLayout) FieldOff(f *ctypes.Field) int { return f.Offset }
