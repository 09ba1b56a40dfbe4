package interp

import (
	"fmt"

	"gocured/internal/ctypes"
	"gocured/internal/flight"
	"gocured/internal/qual"
	"gocured/internal/rtti"
	"gocured/internal/vm"
)

// ValKind discriminates runtime values.
type ValKind uint8

// Value kinds.
const (
	VInt ValKind = iota
	VFloat
	VPtr
)

// Value is one scalar runtime value. Pointer values carry the full fat
// payload (bounds, run-time type); what actually lands in memory on a store
// depends on the destination occurrence's pointer kind.
type Value struct {
	K ValKind
	I int64
	F float64

	P uint32 // pointer
	B uint32 // base (SEQ/WILD); 0 marks a disguised integer
	E uint32 // end (SEQ)
	// RT is the run-time type node (RTTI pointers); nil means "fresh
	// allocation, adopts any type that fits".
	RT *rtti.Node
}

// IntVal makes an integer value.
func IntVal(i int64) Value { return Value{K: VInt, I: i} }

// FloatVal makes a floating value.
func FloatVal(f float64) Value { return Value{K: VFloat, F: f} }

// PtrVal makes a bare pointer value.
func PtrVal(p uint32) Value { return Value{K: VPtr, P: p} }

// SeqVal makes a pointer value with bounds.
func SeqVal(p, b, e uint32) Value { return Value{K: VPtr, P: p, B: b, E: e} }

// Truthy reports C truth.
func (v Value) Truthy() bool {
	switch v.K {
	case VInt:
		return v.I != 0
	case VFloat:
		return v.F != 0
	default:
		return v.P != 0
	}
}

// AsInt coerces to an integer (pointers coerce to their address).
func (v Value) AsInt() int64 {
	switch v.K {
	case VInt:
		return v.I
	case VFloat:
		return int64(v.F)
	default:
		return int64(v.P)
	}
}

// AsFloat coerces to a float.
func (v Value) AsFloat() float64 {
	switch v.K {
	case VInt:
		return float64(v.I)
	case VFloat:
		return v.F
	default:
		return float64(v.P)
	}
}

func (v Value) String() string {
	switch v.K {
	case VInt:
		return fmt.Sprintf("%d", v.I)
	case VFloat:
		return fmt.Sprintf("%g", v.F)
	default:
		return fmt.Sprintf("ptr(0x%x,b=0x%x,e=0x%x)", v.P, v.B, v.E)
	}
}

// normInt truncates and re-extends an integer to the given C type.
func normInt(i int64, size int, signed bool) int64 {
	switch size {
	case 1:
		if signed {
			return int64(int8(i))
		}
		return int64(uint8(i))
	case 2:
		if signed {
			return int64(int16(i))
		}
		return int64(uint16(i))
	case 4:
		if signed {
			return int64(int32(i))
		}
		return int64(uint32(i))
	default:
		return i
	}
}

// load reads a scalar of occurrence type t at addr, honouring the layout
// oracle's pointer representation for t.
func (m *Machine) load(addr uint32, t *ctypes.Type) Value {
	switch t.Kind {
	case ctypes.Int:
		i, err := m.mem.ReadInt(addr, t.Size, t.Signed)
		m.check(err)
		return IntVal(i)
	case ctypes.Float:
		f, err := m.mem.ReadFloat(addr, t.Size)
		m.check(err)
		return FloatVal(f)
	case ctypes.Ptr:
		return m.loadPtr(addr, t)
	default:
		m.trapf("access", "cannot load value of type %s", t)
		return Value{}
	}
}

// splitWork models the cost of maintaining the parallel metadata structure
// alongside the data. Per §4.2, the m field is omitted when Meta(t) is
// void, so pointers without metadata pay nothing extra — only accesses that
// actually touch the mirrored structure are charged (the em3d/anagram
// outliers come from their metadata-bearing pointers).
func (m *Machine) splitWork(addr uint32, hasMeta bool) {
	if !hasMeta {
		return
	}
	m.addCost(5)
	s := uint64(addr) | 1
	for i := 0; i < 24; i++ {
		s = s*2862933555777941757 + 3037000493
	}
	m.libcState.ioSink += s
}

func (m *Machine) loadPtr(addr uint32, t *ctypes.Type) Value {
	if m.lay.IsSplit(t) {
		p, err := m.mem.ReadWord(addr)
		m.check(err)
		v := Value{K: VPtr, P: p}
		meta, ok := m.shadowMeta[addr]
		if ok {
			v.B, v.E = meta.b, meta.e
			v.RT = m.nodeByID(meta.rt)
		}
		m.splitWork(addr, ok)
		return v
	}
	switch m.lay.KindOf(t) {
	case qual.Seq:
		p, err := m.mem.ReadWord(addr)
		m.check(err)
		b, err := m.mem.ReadWord(addr + 4)
		m.check(err)
		e, err := m.mem.ReadWord(addr + 8)
		m.check(err)
		return Value{K: VPtr, P: p, B: b, E: e}
	case qual.Wild:
		// Rep: {b, p}; the base word carries the tag.
		b, err := m.mem.ReadWord(addr)
		m.check(err)
		p, err := m.mem.ReadWord(addr + 4)
		m.check(err)
		return Value{K: VPtr, P: p, B: b}
	case qual.Rtti:
		p, err := m.mem.ReadWord(addr)
		m.check(err)
		id, err := m.mem.ReadWord(addr + 4)
		m.check(err)
		return Value{K: VPtr, P: p, RT: m.nodeByID(int(id))}
	default:
		p, err := m.mem.ReadWord(addr)
		m.check(err)
		return Value{K: VPtr, P: p}
	}
}

// store writes a scalar of occurrence type t at addr.
func (m *Machine) store(addr uint32, t *ctypes.Type, v Value) {
	switch t.Kind {
	case ctypes.Int:
		m.check(m.mem.WriteInt(addr, t.Size, v.AsInt()))
	case ctypes.Float:
		m.check(m.mem.WriteFloat(addr, t.Size, v.AsFloat()))
	case ctypes.Ptr:
		m.storePtr(addr, t, v)
	default:
		m.trapf("access", "cannot store value of type %s", t)
	}
	if m.policyShadow != nil {
		m.policyShadow.onStore(m, addr, uint32(m.lay.Sizeof(t)))
	}
}

func (m *Machine) storePtr(addr uint32, t *ctypes.Type, v Value) {
	if m.lay.IsSplit(t) {
		m.check(m.mem.WriteWord(addr, v.P))
		// Metadata mirrors the data in the parallel (shadow) structure —
		// but only for kinds whose Meta is non-void (Figure 6): a SAFE
		// pointer occurrence has no metadata of its own, so split SAFE
		// pointers cost exactly what the interleaved representation does.
		switch m.lay.KindOf(t) {
		case qual.Seq, qual.Rtti, qual.Wild:
			if v.B != 0 || v.E != 0 || v.RT != nil {
				m.shadowMeta[addr] = metaEntry{b: v.B, e: v.E, rt: m.idOfNode(v.RT)}
				m.splitWork(addr, true)
			} else {
				_, had := m.shadowMeta[addr]
				if had {
					delete(m.shadowMeta, addr)
				}
				m.splitWork(addr, had)
			}
		}
		return
	}
	switch m.lay.KindOf(t) {
	case qual.Seq:
		m.check(m.mem.WriteWord(addr, v.P))
		m.check(m.mem.WriteWord(addr+4, v.B))
		m.check(m.mem.WriteWord(addr+8, v.E))
	case qual.Wild:
		m.check(m.mem.WriteWord(addr, v.B))
		m.check(m.mem.WriteWord(addr+4, v.P))
		// Update the tags if the destination area is dynamically typed:
		// the base word's tag is set, the pointer word's tag cleared.
		if blk := m.mem.BlockAt(addr); blk != nil && blk.Wild {
			blk.SetTag(addr, 1)
			blk.SetTag(addr+4, 0)
		}
	case qual.Rtti:
		m.check(m.mem.WriteWord(addr, v.P))
		m.check(m.mem.WriteWord(addr+4, uint32(m.idOfNode(v.RT))))
	default:
		m.check(m.mem.WriteWord(addr, v.P))
		// Storing a non-pointer-tagged word into a wild area clears tags.
		if blk := m.mem.BlockAt(addr); blk != nil && blk.Wild {
			blk.SetTag(addr, 0)
		}
	}
}

// convert adapts a value flowing from occurrence type `from` to occurrence
// type `to` (Figure 11's cast translations): fabricating single-object
// bounds for SAFE sources, materializing run-time type nodes for RTTI
// destinations, and carrying disguised integers with a null base. In cured
// mode, narrowing a SEQ or WILD value into a SAFE or RTTI slot performs the
// null-or-in-bounds conversion check of Figure 11 — conversions happen at
// every assignment, not only at syntactic casts.
func (m *Machine) convert(v Value, from, to *ctypes.Type) Value {
	return m.convertChecked(v, from, to, false)
}

func (m *Machine) convertChecked(v Value, from, to *ctypes.Type, trusted bool) Value {
	if from == nil || to == nil || from == to {
		return v
	}
	cv := vm.NewConvInfo(m.lay, from, to, trusted)
	return m.convertVia(v, &cv)
}

// convertVia performs a non-identity conversion whose pointer kinds are
// already resolved: the VM resolves them when it compiles, the tree
// walker in convertChecked.
func (m *Machine) convertVia(v Value, cv *vm.ConvInfo) Value {
	from, to, kf, kt := cv.From, cv.To, cv.FromKind, cv.ToKind
	if m.policy == PolicyCured && !cv.Trusted && v.K == VPtr && v.P != 0 && to.IsPointer() &&
		(kf == qual.Seq || kf == qual.Wild) && (kt == qual.Safe || kt == qual.Rtti) {
		m.narrowCheck(v, to)
	}
	switch {
	case to.IsInteger():
		if v.K == VPtr {
			return IntVal(normInt(int64(v.P), to.Size, to.Signed))
		}
		return IntVal(normInt(v.AsInt(), to.Size, to.Signed))
	case to.Kind == ctypes.Float:
		f := v.AsFloat()
		if to.Size == 4 {
			f = float64(float32(f))
		}
		return FloatVal(f)
	case to.IsPointer():
		if v.K != VPtr {
			// int -> pointer: disguised integer (null base).
			return Value{K: VPtr, P: uint32(v.AsInt())}
		}
		out := v
		if kt == qual.Seq && out.B == 0 && out.P != 0 && kf == qual.Safe {
			// SAFE -> SEQ: the object is exactly one element.
			out.B = out.P
			out.E = out.P + uint32(m.lay.Sizeof(from.Elem))
			m.recEvent(flight.EvPack, "safe->seq", uint64(out.P))
		}
		if kt == qual.Wild && out.B == 0 && out.P != 0 {
			if blk := m.mem.BlockAt(out.P); blk != nil {
				blk.MakeWild()
				out.B = blk.Addr
				m.recEvent(flight.EvPack, "->wild", uint64(out.P))
			}
		}
		if kt == qual.Rtti && out.RT == nil && kf != qual.Rtti {
			// A statically-typed pointer records its static type (Fig. 2).
			if from.IsPointer() && m.hier != nil && out.P != 0 {
				if blk := m.mem.BlockAt(out.P); blk == nil || !blk.Fresh {
					out.RT = m.hier.Of(from.Elem)
				}
			}
		}
		if out.RT == nil && m.hier != nil && out.P != 0 &&
			to.Elem.IsVoid() && from.IsPointer() && !from.Elem.IsVoid() {
			// void* values remember their origin type even through SAFE
			// occurrences, so that run-time type information survives
			// library boundaries (e.g. qsort handing elements back).
			if blk := m.mem.BlockAt(out.P); blk == nil || !blk.Fresh {
				out.RT = m.hier.Of(from.Elem)
			}
		}
		return out
	}
	return v
}

// narrowCheck enforces the SEQ/WILD -> SAFE/RTTI conversion invariant:
// non-null values must carry a base and point at a whole object of the
// destination's pointee size.
func (m *Machine) narrowCheck(v Value, to *ctypes.Type) {
	m.recEvent(flight.EvUnpack, "seq->safe", uint64(v.P))
	if v.B == 0 {
		m.trapf("int-deref", "conversion of a disguised integer to a %s", to)
	}
	end := v.E
	if end == 0 {
		if blk := m.mem.BlockAt(v.B); blk != nil {
			end = blk.End()
		}
	}
	size := uint32(m.lay.Sizeof(to.Elem))
	if v.P < v.B || v.P+size > end {
		m.trapf("bounds", "conversion to %s out of bounds: p=0x%x not in [0x%x,0x%x-%d]",
			to, v.P, v.B, end, size)
	}
}

type metaEntry struct {
	b, e uint32
	rt   int
}

func (m *Machine) nodeByID(id int) *rtti.Node {
	if id == 0 || m.hier == nil {
		return nil
	}
	nodes := m.hier.Nodes()
	if id-1 < len(nodes) {
		return nodes[id-1]
	}
	return nil
}

func (m *Machine) idOfNode(n *rtti.Node) int {
	if n == nil {
		return 0
	}
	return n.ID
}
