package interp

import (
	"math"

	"gocured/internal/rtti"
)

// The bytecode register file keeps each register in parallel banks, the
// way CCured keeps a C value in C(t) and its metadata in Meta(t) (§4.2):
//
//   - the data bank d holds a VInt's I, a VFloat's bits, or a VPtr's P
//     (zero-extended), so for VInt and VPtr it holds exactly AsInt();
//   - the kind bank k holds the register's ValKind;
//   - the metadata bank mt holds a VPtr's B, E and RT. Only opcodes that
//     produce, check, store or convert pointers touch it.
//
// The data and kind banks hold no Go pointers, so the garbage collector
// never scans them. A value the plain forms cannot represent — a VInt
// carrying a pointer payload, say, which pointer arithmetic on a null
// constant produces — is kept whole in wide, under the kind vWide.
type banks struct {
	d    []int64
	k    []ValKind
	mt   []regMeta
	wide []Value

	// Most functions need few registers: their banks live in these
	// arrays, inside the pooled frame, and cost no allocation of their own.
	dIn  [inlineRegs]int64
	kIn  [inlineRegs]ValKind
	mtIn [inlineRegs]regMeta
}

// inlineRegs is the register count a frame holds without allocating.
const inlineRegs = 16

// regMeta is one metadata-bank entry: a VPtr register's bounds and
// run-time type.
type regMeta struct {
	b, e uint32
	rt   *rtti.Node
}

// vWide is the kind-bank mark of a register whose Value lives in wide.
const vWide ValKind = 3

// resize makes room for n registers, keeping the backing arrays of a
// pooled frame when they are large enough.
func (rb *banks) resize(n int) {
	switch {
	case cap(rb.d) >= n:
		rb.d, rb.k, rb.mt = rb.d[:n], rb.k[:n], rb.mt[:n]
	case n <= inlineRegs:
		rb.d, rb.k, rb.mt = rb.dIn[:n], rb.kIn[:n], rb.mtIn[:n]
	default:
		rb.d, rb.k, rb.mt = make([]int64, n), make([]ValKind, n), make([]regMeta, n)
	}
}

// get reads register r as a Value.
func (rb *banks) get(r int32) Value {
	switch rb.k[r] {
	case VInt:
		return Value{K: VInt, I: rb.d[r]}
	case VFloat:
		return Value{K: VFloat, F: math.Float64frombits(uint64(rb.d[r]))}
	case VPtr:
		mt := &rb.mt[r]
		return Value{K: VPtr, P: uint32(rb.d[r]), B: mt.b, E: mt.e, RT: mt.rt}
	}
	return rb.wide[r]
}

// set writes v to register r.
func (rb *banks) set(r int32, v Value) {
	plainPtr := v.P|v.B|v.E == 0 && v.RT == nil
	switch {
	case v.K == VInt && plainPtr && math.Float64bits(v.F) == 0:
		rb.d[r], rb.k[r] = v.I, VInt
	case v.K == VFloat && plainPtr && v.I == 0:
		rb.d[r], rb.k[r] = int64(math.Float64bits(v.F)), VFloat
	case v.K == VPtr && v.I == 0 && math.Float64bits(v.F) == 0:
		rb.setPtr(r, v.P, v.B, v.E, v.RT)
	default:
		if len(rb.wide) < len(rb.d) {
			rb.wide = make([]Value, len(rb.d))
		}
		rb.wide[r], rb.k[r] = v, vWide
	}
}

func (rb *banks) setPtr(r int32, p, b, e uint32, rt *rtti.Node) {
	rb.d[r], rb.k[r] = int64(p), VPtr
	rb.mt[r] = regMeta{b: b, e: e, rt: rt}
}

// asInt is get(r).AsInt().
func (rb *banks) asInt(r int32) int64 {
	switch rb.k[r] {
	case VInt, VPtr:
		return rb.d[r]
	case VFloat:
		return int64(math.Float64frombits(uint64(rb.d[r])))
	}
	return rb.wide[r].AsInt()
}

// asFloat is get(r).AsFloat().
func (rb *banks) asFloat(r int32) float64 {
	switch rb.k[r] {
	case VInt:
		return float64(rb.d[r])
	case VFloat:
		return math.Float64frombits(uint64(rb.d[r]))
	case VPtr:
		return float64(uint32(rb.d[r]))
	}
	return rb.wide[r].AsFloat()
}

// truthy is get(r).Truthy().
func (rb *banks) truthy(r int32) bool {
	switch rb.k[r] {
	case VInt, VPtr:
		return rb.d[r] != 0
	case VFloat:
		return math.Float64frombits(uint64(rb.d[r])) != 0
	}
	return rb.wide[r].Truthy()
}

// ptr is get(r).P: a non-pointer register has no pointer payload.
func (rb *banks) ptr(r int32) uint32 {
	switch rb.k[r] {
	case VPtr:
		return uint32(rb.d[r])
	case vWide:
		return rb.wide[r].P
	}
	return 0
}

// ptrParts is get(r)'s P, B, E and RT.
func (rb *banks) ptrParts(r int32) (p, b, e uint32, rt *rtti.Node) {
	switch rb.k[r] {
	case VPtr:
		mt := &rb.mt[r]
		return uint32(rb.d[r]), mt.b, mt.e, mt.rt
	case vWide:
		v := &rb.wide[r]
		return v.P, v.B, v.E, v.RT
	}
	return 0, 0, 0, nil
}
