package ctypes

// This file implements physical type equality and physical subtyping
// (§3.1 of the paper). A type is flattened into a sequence of scalar atoms
// at byte offsets; t' is a physical subtype of t ("t <= t'", so that
// casting t* to t'* is an upcast) when the atom sequence of t' is a prefix
// of that of t at identical offsets.
//
// The flattening realizes the paper's equations:
//
//	t ~ t[1]
//	t[n1+n2] ~ struct { t[n1]; t[n2]; }
//	struct { t1; void; } ~ t1            (void is the empty aggregate)
//	struct { t1; struct { t2; t3; } } ~ struct { struct { t1; t2; }; t3; }
//
// Pointer atoms match only pointer atoms whose targets are physically
// equal (checked coinductively so recursive structures terminate); this is
// the soundness condition that distinguishes our treatment of void* from
// prior work, and it is what keeps a double from aliasing a function
// pointer in the Circle/Figure example.

import "sync"

// maxFlatten bounds the number of atoms materialized when flattening a
// type; casts between larger types are conservatively classified bad.
const maxFlatten = 8192

type atomKind int

const (
	aInt atomKind = iota
	aFloat
	aPtr
	aFuncPtr
	aUnion // opaque union blob: matches only the identical union
)

type atom struct {
	off  int
	kind atomKind
	size int
	pt   *Type       // for aPtr/aFuncPtr: the pointer occurrence itself
	su   *StructInfo // for aUnion
}

// flatten appends the atoms of t at base offset to out. Returns nil, false
// if the atom budget is exceeded.
func flatten(t *Type, base int, out []atom) ([]atom, bool) {
	if len(out) > maxFlatten {
		return nil, false
	}
	switch t.Kind {
	case Void:
		return out, true // empty aggregate
	case Int:
		return append(out, atom{off: base, kind: aInt, size: t.Size}), true
	case Float:
		return append(out, atom{off: base, kind: aFloat, size: t.Size}), true
	case Ptr:
		k := aPtr
		if t.Elem.Kind == Func {
			k = aFuncPtr
		}
		return append(out, atom{off: base, kind: k, size: Word, pt: t}), true
	case Array:
		n := t.Len
		if n < 0 {
			n = 0
		}
		esz := Sizeof(t.Elem)
		var ok bool
		for i := 0; i < n; i++ {
			out, ok = flatten(t.Elem, base+i*esz, out)
			if !ok {
				return nil, false
			}
		}
		return out, true
	case Struct:
		if !t.SU.Complete {
			return nil, false
		}
		if t.SU.Union {
			// A union is opaque: it matches only itself. (Real CCured
			// makes unsound unions WILD; sendmail's port turned unions
			// into structs for this reason.)
			return append(out, atom{off: base, kind: aUnion, size: Sizeof(t), su: t.SU}), true
		}
		var ok bool
		for _, f := range t.SU.Fields {
			out, ok = flatten(f.Type, base+f.Offset, out)
			if !ok {
				return nil, false
			}
		}
		return out, true
	case Func:
		return nil, false
	}
	return nil, false
}

// Matcher compares types physically (PhysEqual, Prefix, Tile). It carries
// the coinductive memo table and the matched pointer pairs of the current
// comparison, and keeps the atom buffers its flattenings use across calls,
// so a caller that compares many types holds one Matcher. The zero value
// is ready to use. A Matcher is not safe for concurrent use.
type Matcher struct {
	seen  map[[2]int]bool // struct-pair assumptions, by StructInfo.ID
	pairs [][2]*Type      // matched pointer occurrences (for kind unification)
	free  [][]atom        // atom buffers not in use by an enclosing comparison
}

// result ends a comparison: it hands the caller the pairs it matched (nil
// when ok is false) and starts the next comparison with a fresh pairs
// slice, so a returned slice is never reused.
func (m *Matcher) result(ok bool) (bool, [][2]*Type) {
	pairs := m.pairs
	m.pairs = nil
	if !ok {
		return false, nil
	}
	return true, pairs
}

// flatten flattens t into a buffer from m's free list; release it with
// m.release when the atoms are no longer needed. The nested comparisons
// atomEq starts take their own buffers, so the two lists a comparison
// walks stay intact.
func (m *Matcher) flatten(t *Type) ([]atom, bool) {
	var buf []atom
	if n := len(m.free); n > 0 {
		buf, m.free = m.free[n-1][:0], m.free[:n-1]
	}
	out, ok := flatten(t, 0, buf)
	if !ok {
		m.release(buf)
		return nil, false
	}
	return out, true
}

// release puts an atom buffer back on m's free list.
func (m *Matcher) release(buf []atom) {
	if cap(buf) > 0 {
		m.free = append(m.free, buf[:0])
	}
}

func (m *Matcher) atomEq(a, b atom, sameOff bool) bool {
	if sameOff && a.off != b.off {
		return false
	}
	if a.kind != b.kind || a.size != b.size {
		return false
	}
	switch a.kind {
	case aUnion:
		return a.su == b.su
	case aPtr:
		if !m.physEq(a.pt.Elem, b.pt.Elem) {
			return false
		}
		m.pairs = append(m.pairs, [2]*Type{a.pt, b.pt})
		return true
	case aFuncPtr:
		if !m.sigEq(a.pt.Elem, b.pt.Elem) {
			return false
		}
		m.pairs = append(m.pairs, [2]*Type{a.pt, b.pt})
		return true
	}
	return true
}

// sigEq compares two function types for compatible signatures.
func (m *Matcher) sigEq(a, b *Type) bool {
	if a.Kind != Func || b.Kind != Func {
		return false
	}
	fa, fb := a.Fn, b.Fn
	if fa.Variadic != fb.Variadic || len(fa.Params) != len(fb.Params) {
		return false
	}
	if !m.physEq(fa.Ret, fb.Ret) {
		return false
	}
	for i := range fa.Params {
		if !m.physEq(fa.Params[i], fb.Params[i]) {
			return false
		}
	}
	return true
}

// physEq reports whether a and b are physically equal types.
func (m *Matcher) physEq(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	// Coinductive guard for (mutually) recursive structures.
	if a.Kind == Struct && b.Kind == Struct {
		if a.SU == b.SU {
			return true
		}
		key := [2]int{a.SU.ID, b.SU.ID}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if m.seen == nil {
			m.seen = make(map[[2]int]bool)
		}
		if m.seen[key] {
			return true
		}
		m.seen[key] = true
		defer delete(m.seen, key)
	}
	if a.Kind == Func || b.Kind == Func {
		return m.sigEq(a, b)
	}
	fa, ok := m.flatten(a)
	if !ok {
		return false
	}
	defer m.release(fa)
	fb, ok := m.flatten(b)
	if !ok {
		return false
	}
	defer m.release(fb)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if !m.atomEq(fa[i], fb[i], true) {
			return false
		}
	}
	return true
}

// PhysEqual reports whether a and b are physically equal (a ~ b). It also
// returns the pointer occurrence pairs matched during the comparison; when
// the types are used compatibly, the inference must unify the kinds of each
// pair.
func (m *Matcher) PhysEqual(a, b *Type) (bool, [][2]*Type) {
	return m.result(m.physEq(a, b))
}

// matchers holds the Matchers of the package-level comparisons, which
// run on any goroutine (the RTTI subtype test runs during execution).
var matchers = sync.Pool{New: func() any { return new(Matcher) }}

// PhysEqual is Matcher.PhysEqual on a pooled Matcher.
func PhysEqual(a, b *Type) (bool, [][2]*Type) {
	m := matchers.Get().(*Matcher)
	defer matchers.Put(m)
	return m.PhysEqual(a, b)
}

// Prefix reports whether smaller is a physical-layout prefix of larger
// (larger <= smaller), i.e. casting larger* to smaller* is a safe upcast.
// void is the empty aggregate, so Prefix(t, void) holds for every t.
func (m *Matcher) Prefix(larger, smaller *Type) (bool, [][2]*Type) {
	return m.result(m.prefix(larger, smaller))
}

// Prefix is Matcher.Prefix on a pooled Matcher.
func Prefix(larger, smaller *Type) (bool, [][2]*Type) {
	m := matchers.Get().(*Matcher)
	defer matchers.Put(m)
	return m.Prefix(larger, smaller)
}

func (m *Matcher) prefix(larger, smaller *Type) bool {
	if smaller.Kind == Void {
		return true
	}
	if larger.Kind == Func || smaller.Kind == Func {
		return m.sigEq(larger, smaller)
	}
	fl, ok := m.flatten(larger)
	if !ok {
		return false
	}
	defer m.release(fl)
	fs, ok := m.flatten(smaller)
	if !ok {
		return false
	}
	defer m.release(fs)
	if len(fs) > len(fl) {
		return false
	}
	// Every atom of the smaller view must coincide with an atom of the
	// larger at the same offset. Atoms are emitted in offset order, and the
	// larger type may have extra atoms interleaved only beyond the
	// smaller's span or in the smaller's padding holes; we walk both lists.
	j := 0
	for i := range fs {
		for j < len(fl) && fl[j].off < fs[i].off {
			j++
		}
		if j >= len(fl) || !m.atomEq(fl[j], fs[i], true) {
			return false
		}
		j++
	}
	return true
}

// gcd computes the greatest common divisor.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Tile implements the SEQ cast rule of §3.1: a cast from a* SEQ to b* SEQ
// is allowed when a[n] ~ b[n'] for the smallest n, n' > 0 such that
// n*sizeof(a) == n'*sizeof(b). This prevents, e.g., viewing a Circle array
// as a Figure array where strides would misalign doubles over function
// pointers, while allowing multi-dimensional array reshaping.
func (m *Matcher) Tile(a, b *Type) (bool, [][2]*Type) {
	sa, sb := Sizeof(a), Sizeof(b)
	if sa == 0 || sb == 0 {
		// void or incomplete: only void~void tiles.
		if a.Kind == Void && b.Kind == Void {
			return true, nil
		}
		return false, nil
	}
	g := gcd(sa, sb)
	lcm := sa / g * sb
	if lcm > maxFlatten {
		return false, nil
	}
	n, n2 := lcm/sa, lcm/sb
	return m.result(m.physEq(ArrayOf(a, n), ArrayOf(b, n2)))
}

// Tile is Matcher.Tile on a pooled Matcher.
func Tile(a, b *Type) (bool, [][2]*Type) {
	m := matchers.Get().(*Matcher)
	defer matchers.Put(m)
	return m.Tile(a, b)
}

// ContainsPointer reports whether t's representation contains any pointer
// (used by the WILD-spreading and the Meta(t) computation: types without
// pointers need no metadata).
func ContainsPointer(t *Type) bool {
	found := false
	Walk(t, func(u *Type) {
		if u.Kind == Ptr {
			found = true
		}
	})
	return found
}
