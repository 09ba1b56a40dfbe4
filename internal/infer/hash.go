package infer

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
)

// fingerprinter content-hashes one program's functions and declarations for
// summary keying. Both fingerprints share one shallow binary encoding of
// types: a struct type is named by its index (StructInfo.Index, its place
// in prog.Structs), not expanded.
// That is sound because the declaration fingerprint hashes every struct's
// fields once, and it is part of every chunk key, so a change to any struct
// (or to the declaration order) changes every key.
type fingerprinter struct {
	structs []*ctypes.StructInfo
	buf     []byte
}

func newFingerprinter(prog *cil.Program) *fingerprinter {
	return &fingerprinter{structs: prog.Structs}
}

// Write appends p to the buffer, so the IR printer can print into it.
func (fp *fingerprinter) Write(p []byte) (int, error) {
	fp.buf = append(fp.buf, p...)
	return len(p), nil
}

// Func hashes one function: the printed body (pure structure), every
// statement and cast position (summary ops carry positions into
// provenance, so a moved-but-identical body must not reuse a stale
// summary), and every type occurrence in the function's scope (the printer
// does not render kind/split annotations, but they seed the solver).
func (fp *fingerprinter) Func(f *cil.Func) [sha256.Size]byte {
	fp.buf = fp.buf[:0]
	cil.FprintFunc(fp, f)
	// The printed text is length-prefixed so it cannot run into the
	// tagged records that follow.
	var n [binary.MaxVarintLen64]byte
	h := sha256.New()
	h.Write(binary.AppendUvarint(n[:0], uint64(len(fp.buf))))
	h.Write(fp.buf)
	fp.buf = fp.buf[:0]
	cil.WalkStmts(f.Body.Stmts, func(s cil.Stmt) {
		switch st := s.(type) {
		case *cil.SInstr:
			fp.pos('p', st.Ins.Position())
		case *cil.Return:
			fp.pos('p', st.Pos)
		}
	})
	cil.WalkFuncExprs(f, func(e cil.Expr) {
		if c, ok := e.(*cil.Cast); ok {
			fp.pos('c', c.Pos)
		}
	})
	forEachFuncType(f, func(t *ctypes.Type) {
		fp.buf = append(fp.buf, 't')
		fp.typ(t)
	})
	h.Write(fp.buf)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Decls hashes everything a function collection can see outside function
// bodies: struct layouts, globals (with initializers), externs, function
// signatures, and wrapper pragmas. Any change here invalidates every
// stored summary of the translation unit (the hash is part of each chunk
// key), which also keeps the occurrence table's declaration-owned naming
// stable for every summary that is reused.
func (fp *fingerprinter) Decls(prog *cil.Program) [sha256.Size]byte {
	fp.buf = fp.buf[:0]
	for _, su := range prog.Structs {
		fp.buf = append(fp.buf, 's')
		fp.str(su.Name)
		fp.buf = binary.AppendUvarint(append(fp.buf, flags(su.Union, su.Complete)), uint64(len(su.Fields)))
		for _, f := range su.Fields {
			fp.str(f.Name)
			fp.typ(f.Type)
		}
	}
	for _, g := range prog.Globals {
		fp.buf = append(fp.buf, 'g')
		fp.str(g.Var.Name)
		fp.typ(g.Var.Type)
		fp.typ(g.Var.AddrType)
		fp.init(g.Init)
	}
	for _, v := range prog.Externs {
		fp.buf = append(fp.buf, 'x')
		fp.str(v.Name)
		fp.typ(v.Type)
		fp.typ(v.AddrType)
	}
	for _, f := range prog.Funcs {
		fp.buf = append(fp.buf, 'f')
		fp.str(f.Name)
		fp.typ(f.Type)
	}
	for _, w := range prog.Wrappers {
		fp.buf = append(fp.buf, 'w')
		fp.str(w.Wrapper)
		fp.str(w.Wrapped)
	}
	return sha256.Sum256(fp.buf)
}

func (fp *fingerprinter) str(s string) {
	fp.buf = append(binary.AppendUvarint(fp.buf, uint64(len(s))), s...)
}

func (fp *fingerprinter) pos(tag byte, p diag.Pos) {
	fp.buf = append(fp.buf, tag)
	fp.str(p.File)
	fp.buf = binary.AppendVarint(binary.AppendVarint(fp.buf, int64(p.Line)), int64(p.Col))
}

func flags(bs ...bool) byte {
	var b byte
	for i, v := range bs {
		if v {
			b |= 1 << i
		}
	}
	return b
}

// typ writes the shallow encoding of t: kind, size, sign, length, user
// annotations, decay identity, and the pointee/signature structure, with a
// struct named by reference. Every encoding is self-delimiting (nil is
// 0, a type starts with its kind+1), so a sequence of them is injective.
func (fp *fingerprinter) typ(t *ctypes.Type) {
	if t == nil {
		fp.buf = append(fp.buf, 0)
		return
	}
	b := binary.AppendUvarint(fp.buf, uint64(t.Kind)+1)
	b = binary.AppendVarint(b, int64(t.Size))
	b = binary.AppendVarint(b, int64(t.Len))
	fp.buf = append(b, flags(t.Signed, t.DecayOf != nil), byte(t.Ann), byte(t.SplitAnnot))
	switch t.Kind {
	case ctypes.Ptr, ctypes.Array:
		fp.typ(t.Elem)
	case ctypes.Struct:
		fp.structRef(t.SU)
	case ctypes.Func:
		fp.typ(t.Fn.Ret)
		fp.buf = append(fp.buf, flags(t.Fn.Variadic))
		fp.buf = binary.AppendUvarint(fp.buf, uint64(len(t.Fn.Params)))
		for _, p := range t.Fn.Params {
			fp.typ(p)
		}
	}
}

// structRef names su by its declaration index. Every struct an occurrence
// can reach is listed: ctypes.NewStruct is the only constructor, the
// parser appends each struct it makes to File.Structs, and lowering copies
// that list to prog.Structs. A struct outside it is a frontend bug, and
// naming it by anything short of its fields would make the key unsound.
func (fp *fingerprinter) structRef(su *ctypes.StructInfo) {
	if int(su.Index) >= len(fp.structs) || fp.structs[su.Index] != su {
		panic(fmt.Sprintf("infer: struct %q is not declared in the program", su.Name))
	}
	fp.buf = binary.AppendUvarint(fp.buf, uint64(su.Index))
}

func (fp *fingerprinter) init(in *cil.Init) {
	switch {
	case in == nil || in.Zero:
		fp.buf = append(fp.buf, 'z')
	case in.IsList:
		fp.buf = binary.AppendUvarint(append(fp.buf, 'l'), uint64(len(in.List)))
		for _, e := range in.List {
			fp.init(e)
		}
	default:
		fp.buf = append(fp.buf, 'e')
		fp.str(cil.ExprString(in.Expr))
		cil.WalkExpr(in.Expr, func(e cil.Expr) {
			if c, ok := e.(*cil.Cast); ok {
				fp.buf = append(fp.buf, 'c')
				fp.typ(c.To)
			}
		})
		fp.buf = append(fp.buf, '.')
	}
}
