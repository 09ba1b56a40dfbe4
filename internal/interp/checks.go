package interp

import (
	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/flight"
)

// checkCost weighs each check kind in simulated cycles: SAFE null checks
// are one compare; SEQ bounds are two; WILD pays the header read, the area
// lookup and tag work; RTTI walks the subtype relation. Indexed by
// cil.CheckKind (an array: the cost lookup is on the per-check hot path).
var checkCost = [cil.NumCheckKinds]uint64{
	cil.CheckNull:        1,
	cil.CheckSeq:         2,
	cil.CheckSeqArith:    0,
	cil.CheckWild:        6,
	cil.CheckWildRead:    3,
	cil.CheckWildWrite:   3,
	cil.CheckRtti:        3,
	cil.CheckStackEscape: 2,
	cil.CheckSeqToSafe:   2,
	cil.CheckNotStackPtr: 1,
	cil.CheckVerifyNul:   1,
	cil.CheckIndex:       1,
}

// checkEnter performs the accounting half of a check — counters, per-site
// attribution, simulated cost, the flight event — and marks c as the check
// in flight so a trap raised anywhere below (including inside mem, or
// while evaluating the pointer operand) is attributed to this site. Both
// backends run it before evaluating the operand.
func (m *Machine) checkEnter(c *cil.Check) {
	m.cnt.Checks++
	m.cnt.ChecksByKind[c.Kind]++
	m.siteFor(c).Hits++
	m.addCost(checkCost[c.Kind])
	if m.rec != nil {
		m.rec.Record(flight.Event{TS: m.cnt.Cost, Kind: flight.EvCheck, Site: c.Site, Arg: uint64(c.Size)})
	}
	m.curCheck = c
}

// execCheck executes one CCured run-time check (Appendix A) on the tree
// backend. The pointer operand is re-evaluated; IR expressions are pure,
// so this mirrors the repeated metadata reads of the generated code.
func (m *Machine) execCheck(fr *frame, c *cil.Check) {
	prev := m.curCheck
	m.checkEnter(c)
	defer func() { m.curCheck = prev }()
	v := m.evalExpr(fr, c.Ptr)
	if c.Kind == cil.CheckStackEscape {
		// The destination lvalue is evaluated lazily: only a live stack
		// pointer needs the store destination examined.
		if v.K != VPtr || v.P == 0 || !m.mem.InStack(v.P) {
			return
		}
		dst, _, _ := m.evalLval(fr, c.DstLV)
		m.stackEscapeVerify(v, dst)
		return
	}
	m.checkVerdict(c, v)
}

// stackEscapeVerify is the second half of CheckStackEscape, shared by both
// backends: v is a live stack pointer, dst the store destination.
func (m *Machine) stackEscapeVerify(v Value, dst uint32) {
	if !m.mem.InStack(dst) {
		m.trapf("stack-escape", "storing a stack pointer (0x%x) into non-stack memory (0x%x)",
			v.P, dst)
	}
}

// checkVerdict decides one check given its evaluated operand. It is the
// shared second half of a check (after checkEnter): the tree backend calls
// it from execCheck, the bytecode backend from OpCheck.
// CheckStackEscape never reaches here (its lazy destination evaluation
// needs backend-specific sequencing).
func (m *Machine) checkVerdict(c *cil.Check, v Value) {
	switch c.Kind {
	case cil.CheckNull:
		m.nullVerdict(v.P)

	case cil.CheckSeq:
		m.seqVerdict(c, v.P, v.B, v.E)

	case cil.CheckSeqToSafe:
		if v.P == 0 {
			return // null converts freely
		}
		if v.B == 0 {
			m.trapf("int-deref", "conversion of a disguised integer to a SAFE pointer")
		}
		if v.P < v.B || v.P+uint32(c.Size) > v.E {
			m.trapf("bounds", "SEQ->SAFE conversion out of bounds: p=0x%x not in [0x%x, 0x%x-%d]",
				v.P, v.B, v.E, c.Size)
		}

	case cil.CheckWild:
		if v.P == 0 {
			m.trapf("null", "null WILD pointer dereference")
		}
		if v.B == 0 {
			m.trapf("int-deref", "dereference of an integer disguised as a WILD pointer")
		}
		blk := m.mem.BlockAt(v.B)
		if blk == nil {
			m.trapf("bounds", "WILD pointer base 0x%x is not a valid area", v.B)
		}
		// The paper's WILD areas keep their length in a header word: pay
		// for the header read.
		if _, err := m.mem.ReadWord(blk.Addr); err != nil {
			m.check(err)
		}
		if v.P < blk.Addr || v.P+uint32(c.Size) > blk.End() {
			m.trapf("bounds", "WILD access out of bounds: p=0x%x size %d in area %q [0x%x,0x%x)",
				v.P, c.Size, blk.Name, blk.Addr, blk.End())
		}
		// Tag bookkeeping touches every word of the access.
		blk.MakeWild()
		for off := uint32(0); off < uint32(c.Size); off += 4 {
			_ = blk.TagAt(v.P + off)
		}

	case cil.CheckWildRead:
		// Reading a pointer out of a dynamically-typed area: the tags must
		// say a valid base/pointer pair lives here.
		blk := m.mem.BlockAt(v.B)
		if blk == nil || !blk.Wild {
			m.trapf("tag", "WILD pointer read from untagged area")
		}
		if blk.TagAt(v.P) != 1 || blk.TagAt(v.P+4) != 0 {
			m.trapf("tag", "WILD read of a non-pointer as a pointer (tag check failed at 0x%x)", v.P)
		}

	case cil.CheckWildWrite:
		// Tag updates happen in storePtr; the check instruction exists to
		// account for the write-barrier cost and to verify the area.
		if blk := m.mem.BlockAt(v.B); blk != nil {
			blk.MakeWild()
		}

	case cil.CheckRtti:
		if v.P == 0 {
			return // null downcasts freely
		}
		target := m.hier.Of(c.RttiTarget)
		if v.RT == nil {
			// Fresh allocation: adopts any type that fits in the block.
			blk := m.mem.BlockAt(v.P)
			if blk == nil {
				m.trapf("rtti", "downcast of pointer 0x%x to %s: no underlying object", v.P, target)
			}
			if blk.Fresh {
				if v.P+uint32(c.Size) > blk.End() {
					m.trapf("rtti", "downcast to %s does not fit in %d-byte allocation",
						target, blk.Size)
				}
				return
			}
			// A bounded pointer whose type info was lost at a library
			// boundary (e.g. qsort handing elements back to a cured
			// comparator): reinterpreting pointer-free data is memory-
			// safe, so allow it when the target fits within the bounds.
			if v.B != 0 && !ctypes.ContainsPointer(c.RttiTarget) &&
				v.P >= v.B && v.P+uint32(c.Size) <= v.E {
				return
			}
			m.trapf("rtti", "downcast of pointer without run-time type information to %s", target)
		}
		if !m.hier.IsSubtype(v.RT, target) {
			m.trapf("rtti", "checked downcast failed: %s is not a subtype of %s", v.RT, target)
		}

	case cil.CheckIndex:
		idx := v.AsInt()
		if idx < 0 || (c.Size >= 0 && idx >= int64(c.Size)) {
			m.trapf("bounds", "array index %d out of range [0, %d)", idx, c.Size)
		}

	case cil.CheckVerifyNul:
		m.verifyNul(v)

	default:
		m.trapf("internal", "unknown check kind %s", c.Kind)
	}
}

// nullVerdict decides CheckNull on pointer p.
func (m *Machine) nullVerdict(p uint32) {
	if p == 0 {
		m.trapf("null", "null pointer dereference")
	}
}

// seqVerdict decides CheckSeq on a pointer's address p and bounds [b, e).
func (m *Machine) seqVerdict(c *cil.Check, p, b, e uint32) {
	if p == 0 {
		m.trapf("null", "null SEQ pointer dereference")
	}
	if b == 0 {
		m.trapf("int-deref", "dereference of an integer disguised as a pointer")
	}
	if p < b || p+uint32(c.Size) > e {
		m.trapf("bounds", "SEQ access out of bounds: p=0x%x not in [0x%x, 0x%x-%d]",
			p, b, e, c.Size)
	}
}

// verifyNul implements the __verify_nul wrapper helper: the string must
// contain a NUL before its bounds end.
func (m *Machine) verifyNul(v Value) {
	if v.P == 0 {
		m.trapf("null", "__verify_nul of null string")
	}
	limit := uint32(1 << 20)
	if v.B != 0 && v.E > v.P {
		limit = v.E - v.P
	}
	for i := uint32(0); i < limit; i++ {
		b, err := m.mem.ReadInt(v.P+i, 1, false)
		m.check(err)
		if b == 0 {
			return
		}
	}
	m.trapf("bounds", "__verify_nul: string is not NUL-terminated within bounds")
}
