package interp

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"gocured/internal/flight"
	"gocured/internal/mem"
)

// builtinFn implements one external library function. Builtins receive fat
// argument values; when running cured they behave like CCured's packaged
// wrappers (checking the metadata before touching memory), and when running
// raw they behave like the real library (no checks; the arena guard is the
// only net).
type builtinFn func(m *Machine, args []Value) Value

type libcState struct {
	hostent  uint32 // interned struct hostent for gethostbyname
	simRecvN uint64
	simSentN uint64
	ioSink   uint64
}

// builtinTable maps each library function to its implementation. It is
// built once and shared read-only by every machine.
var builtinTable = map[string]builtinFn{
	// Allocation.
	"malloc":  bMalloc,
	"calloc":  bCalloc,
	"realloc": bRealloc,
	"free":    bFree,

	// Memory.
	"memcpy":  bMemcpy,
	"memmove": bMemcpy,
	"memset":  bMemset,
	"memcmp":  bMemcmp,

	// Strings.
	"strlen":  bStrlen,
	"strcpy":  bStrcpy,
	"strncpy": bStrncpy,
	"strcat":  bStrcat,
	"strncat": bStrncat,
	"strcmp":  bStrcmp,
	"strncmp": bStrncmp,
	"strchr":  bStrchr,
	"strrchr": bStrrchr,
	"strstr":  bStrstr,
	"strdup":  bStrdup,

	// Stdio.
	"printf":   bPrintf,
	"sprintf":  bSprintf,
	"snprintf": bSnprintf,
	"puts":     bPuts,
	"putchar":  bPutchar,
	"getchar":  bGetchar,

	// Stdlib.
	"atoi":  bAtoi,
	"abs":   bAbs,
	"rand":  bRand,
	"srand": bSrand,
	"exit":  bExit,
	"abort": bAbort,
	"qsort": bQsort,
	"sqrt":  bSqrt,
	"time":  bTime,
	"clock": bTime,

	// Library-compatibility demos (§4).
	"gethostbyname": bGethostbyname,
	"sim_recv":      bSimRecv,
	"sim_send":      bSimSend,

	// Wrapper helpers (§4.1).
	"__ptrof":      bPtrof,
	"__mkptr":      bMkptr,
	"__verify_nul": bVerifyNul,
	"__endof":      bEndof,
}

func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Value{}
}

// cured reports whether builtins should enforce wrapper-style checks.
func (m *Machine) curedMode() bool { return m.policy == PolicyCured }

// boundsOf returns the byte budget from v.P to its end bound, or a large
// default when no metadata is available.
func (m *Machine) boundsOf(v Value) uint32 {
	if v.B != 0 && v.E > v.P {
		return v.E - v.P
	}
	if blk := m.mem.BlockAt(v.P); blk != nil {
		return blk.End() - v.P
	}
	return 1 << 20
}

// requireSpan is the wrapper-style precondition: the first n bytes at v
// must be within v's bounds (cured mode only). WILD values carry a base
// but no end; their extent comes from the home block.
func (m *Machine) requireSpan(v Value, n uint32, fn string) {
	if !m.curedMode() {
		return
	}
	if v.P == 0 {
		m.trapf("null", "%s: null pointer argument", fn)
	}
	if v.B == 0 {
		return // SAFE argument: no metadata to validate against
	}
	end := v.E
	if end == 0 {
		blk := m.mem.BlockAt(v.B)
		if blk == nil {
			m.trapf("bounds", "%s: pointer base 0x%x is not a valid area", fn, v.B)
		}
		end = blk.End()
	}
	if v.P < v.B || v.P+n > end {
		m.trapf("bounds", "%s: buffer of %d bytes exceeds pointer bounds [0x%x,0x%x)",
			fn, n, v.B, end)
	}
}

// ---- Allocation ----

func bMalloc(m *Machine, args []Value) Value {
	n := uint32(arg(args, 0).AsInt())
	blk := m.mem.Alloc(n, mem.RegHeap, "malloc")
	blk.Fresh = true
	m.cnt.Allocs++
	m.recEvent(flight.EvAlloc, "malloc", uint64(n))
	return SeqVal(blk.Addr, blk.Addr, blk.End())
}

func bCalloc(m *Machine, args []Value) Value {
	n := uint32(arg(args, 0).AsInt()) * uint32(arg(args, 1).AsInt())
	blk := m.mem.Alloc(n, mem.RegHeap, "calloc")
	blk.Fresh = true
	m.cnt.Allocs++
	m.recEvent(flight.EvAlloc, "calloc", uint64(n))
	return SeqVal(blk.Addr, blk.Addr, blk.End())
}

func bRealloc(m *Machine, args []Value) Value {
	old := arg(args, 0)
	n := uint32(arg(args, 1).AsInt())
	nv := bMalloc(m, []Value{IntVal(int64(n))})
	if old.P != 0 {
		if oldBlk := m.mem.BlockAt(old.P); oldBlk != nil {
			cp := oldBlk.End() - old.P
			if cp > n {
				cp = n
			}
			m.check(m.mem.Copy(nv.P, old.P, cp))
			m.check(m.mem.Free(oldBlk.Addr))
		}
	}
	return nv
}

func bFree(m *Machine, args []Value) Value {
	v := arg(args, 0)
	if v.P == 0 {
		return Value{}
	}
	m.recEvent(flight.EvFree, "free", uint64(v.P))
	m.check(m.mem.Free(v.P))
	return Value{}
}

// ---- Memory ----

func bMemcpy(m *Machine, args []Value) Value {
	dst, src := arg(args, 0), arg(args, 1)
	n := uint32(arg(args, 2).AsInt())
	m.requireSpan(dst, n, "memcpy")
	m.requireSpan(src, n, "memcpy")
	m.check(m.mem.Copy(dst.P, src.P, n))
	return dst
}

func bMemset(m *Machine, args []Value) Value {
	dst := arg(args, 0)
	c := byte(arg(args, 1).AsInt())
	n := uint32(arg(args, 2).AsInt())
	m.requireSpan(dst, n, "memset")
	m.check(m.mem.SetBytes(dst.P, c, n))
	return dst
}

func bMemcmp(m *Machine, args []Value) Value {
	a, b := arg(args, 0), arg(args, 1)
	n := uint32(arg(args, 2).AsInt())
	m.requireSpan(a, n, "memcmp")
	m.requireSpan(b, n, "memcmp")
	ab, err := m.mem.Bytes(a.P, n)
	m.check(err)
	bb, err := m.mem.Bytes(b.P, n)
	m.check(err)
	return IntVal(int64(int32(strings.Compare(string(ab), string(bb)))))
}

// ---- Strings ----

// cstr reads the NUL-terminated string at v, enforcing bounds in cured mode
// (the __verify_nul discipline of the packaged wrappers).
func (m *Machine) cstr(v Value, fn string) string {
	if v.P == 0 {
		m.trapf("null", "%s: null string", fn)
	}
	if m.curedMode() {
		m.verifyNul(v)
	}
	s, err := m.mem.CString(v.P, m.boundsOf(v))
	m.check(err)
	return s
}

func bStrlen(m *Machine, args []Value) Value {
	return IntVal(int64(len(m.cstr(arg(args, 0), "strlen"))))
}

func bStrcpy(m *Machine, args []Value) Value {
	dst, src := arg(args, 0), arg(args, 1)
	s := m.cstr(src, "strcpy")
	m.requireSpan(dst, uint32(len(s))+1, "strcpy")
	for i := 0; i < len(s); i++ {
		m.check(m.mem.WriteInt(dst.P+uint32(i), 1, int64(s[i])))
	}
	m.check(m.mem.WriteInt(dst.P+uint32(len(s)), 1, 0))
	return dst
}

func bStrncpy(m *Machine, args []Value) Value {
	dst, src := arg(args, 0), arg(args, 1)
	n := uint32(arg(args, 2).AsInt())
	s := m.cstr(src, "strncpy")
	m.requireSpan(dst, n, "strncpy")
	for i := uint32(0); i < n; i++ {
		var c int64
		if int(i) < len(s) {
			c = int64(s[i])
		}
		m.check(m.mem.WriteInt(dst.P+i, 1, c))
	}
	return dst
}

func bStrcat(m *Machine, args []Value) Value {
	dst, src := arg(args, 0), arg(args, 1)
	d := m.cstr(dst, "strcat")
	s := m.cstr(src, "strcat")
	m.requireSpan(dst, uint32(len(d)+len(s))+1, "strcat")
	off := dst.P + uint32(len(d))
	for i := 0; i < len(s); i++ {
		m.check(m.mem.WriteInt(off+uint32(i), 1, int64(s[i])))
	}
	m.check(m.mem.WriteInt(off+uint32(len(s)), 1, 0))
	return dst
}

func bStrncat(m *Machine, args []Value) Value {
	dst, src := arg(args, 0), arg(args, 1)
	n := int(arg(args, 2).AsInt())
	d := m.cstr(dst, "strncat")
	s := m.cstr(src, "strncat")
	if len(s) > n {
		s = s[:n]
	}
	m.requireSpan(dst, uint32(len(d)+len(s))+1, "strncat")
	off := dst.P + uint32(len(d))
	for i := 0; i < len(s); i++ {
		m.check(m.mem.WriteInt(off+uint32(i), 1, int64(s[i])))
	}
	m.check(m.mem.WriteInt(off+uint32(len(s)), 1, 0))
	return dst
}

func bStrcmp(m *Machine, args []Value) Value {
	a := m.cstr(arg(args, 0), "strcmp")
	b := m.cstr(arg(args, 1), "strcmp")
	return IntVal(int64(strings.Compare(a, b)))
}

func bStrncmp(m *Machine, args []Value) Value {
	a := m.cstr(arg(args, 0), "strncmp")
	b := m.cstr(arg(args, 1), "strncmp")
	n := int(arg(args, 2).AsInt())
	if len(a) > n {
		a = a[:n]
	}
	if len(b) > n {
		b = b[:n]
	}
	return IntVal(int64(strings.Compare(a, b)))
}

func bStrchr(m *Machine, args []Value) Value {
	v := arg(args, 0)
	s := m.cstr(v, "strchr")
	c := byte(arg(args, 1).AsInt())
	idx := strings.IndexByte(s, c)
	if c == 0 {
		idx = len(s)
	}
	if idx < 0 {
		return Value{K: VPtr}
	}
	out := v
	out.P += uint32(idx)
	return out
}

func bStrrchr(m *Machine, args []Value) Value {
	v := arg(args, 0)
	s := m.cstr(v, "strrchr")
	c := byte(arg(args, 1).AsInt())
	idx := strings.LastIndexByte(s, c)
	if idx < 0 {
		return Value{K: VPtr}
	}
	out := v
	out.P += uint32(idx)
	return out
}

func bStrstr(m *Machine, args []Value) Value {
	v := arg(args, 0)
	hay := m.cstr(v, "strstr")
	needle := m.cstr(arg(args, 1), "strstr")
	idx := strings.Index(hay, needle)
	if idx < 0 {
		return Value{K: VPtr}
	}
	out := v
	out.P += uint32(idx)
	return out
}

func bStrdup(m *Machine, args []Value) Value {
	s := m.cstr(arg(args, 0), "strdup")
	nv := bMalloc(m, []Value{IntVal(int64(len(s) + 1))})
	for i := 0; i < len(s); i++ {
		m.check(m.mem.WriteInt(nv.P+uint32(i), 1, int64(s[i])))
	}
	m.check(m.mem.WriteInt(nv.P+uint32(len(s)), 1, 0))
	return nv
}

// ---- Stdio ----

// formatC renders a C format string with the given varargs.
func (m *Machine) formatC(format string, args []Value) string {
	var b strings.Builder
	ai := 0
	next := func() Value {
		v := arg(args, ai)
		ai++
		return v
	}
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		// Flags, width, precision.
		spec := "%"
		for i < len(format) && strings.IndexByte("-+ 0#", format[i]) >= 0 {
			spec += string(format[i])
			i++
		}
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			spec += string(format[i])
			i++
		}
		if i < len(format) && format[i] == '.' {
			spec += "."
			i++
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				spec += string(format[i])
				i++
			}
		}
		// Length modifiers are consumed and ignored (ILP32).
		for i < len(format) && (format[i] == 'l' || format[i] == 'h' || format[i] == 'z') {
			i++
		}
		if i >= len(format) {
			break
		}
		verb := format[i]
		i++
		switch verb {
		case '%':
			b.WriteByte('%')
		case 'd', 'i':
			fmt.Fprintf(&b, spec+"d", next().AsInt())
		case 'u':
			fmt.Fprintf(&b, spec+"d", uint32(next().AsInt()))
		case 'x':
			fmt.Fprintf(&b, spec+"x", uint32(next().AsInt()))
		case 'X':
			fmt.Fprintf(&b, spec+"X", uint32(next().AsInt()))
		case 'o':
			fmt.Fprintf(&b, spec+"o", uint32(next().AsInt()))
		case 'c':
			b.WriteByte(byte(next().AsInt()))
		case 'f', 'F':
			fmt.Fprintf(&b, spec+"f", next().AsFloat())
		case 'e':
			fmt.Fprintf(&b, spec+"e", next().AsFloat())
		case 'g':
			fmt.Fprintf(&b, spec+"g", next().AsFloat())
		case 'p':
			fmt.Fprintf(&b, "0x%x", uint32(next().AsInt()))
		case 's':
			v := next()
			if v.K != VPtr {
				// The Spec95 bug class found by CCured: %s given a
				// non-pointer. Cured mode traps; raw mode prints garbage.
				if m.curedMode() {
					m.trapf("format", "printf %%s given a non-pointer argument")
				}
				fmt.Fprintf(&b, "<bad %%s arg %d>", v.AsInt())
				continue
			}
			fmt.Fprintf(&b, spec+"s", m.cstr(v, "printf"))
		default:
			b.WriteByte('%')
			b.WriteByte(verb)
		}
	}
	return b.String()
}

func bPrintf(m *Machine, args []Value) Value {
	format := m.cstr(arg(args, 0), "printf")
	s := m.formatC(format, args[1:])
	m.stdout.WriteString(s)
	return IntVal(int64(len(s)))
}

func bSprintf(m *Machine, args []Value) Value {
	dst := arg(args, 0)
	format := m.cstr(arg(args, 1), "sprintf")
	s := m.formatC(format, args[2:])
	m.requireSpan(dst, uint32(len(s))+1, "sprintf")
	for i := 0; i < len(s); i++ {
		m.check(m.mem.WriteInt(dst.P+uint32(i), 1, int64(s[i])))
	}
	m.check(m.mem.WriteInt(dst.P+uint32(len(s)), 1, 0))
	return IntVal(int64(len(s)))
}

func bSnprintf(m *Machine, args []Value) Value {
	dst := arg(args, 0)
	n := int(arg(args, 1).AsInt())
	format := m.cstr(arg(args, 2), "snprintf")
	s := m.formatC(format, args[3:])
	full := len(s)
	if n == 0 {
		return IntVal(int64(full))
	}
	if len(s) > n-1 {
		s = s[:n-1]
	}
	m.requireSpan(dst, uint32(len(s))+1, "snprintf")
	for i := 0; i < len(s); i++ {
		m.check(m.mem.WriteInt(dst.P+uint32(i), 1, int64(s[i])))
	}
	m.check(m.mem.WriteInt(dst.P+uint32(len(s)), 1, 0))
	return IntVal(int64(full))
}

func bPuts(m *Machine, args []Value) Value {
	s := m.cstr(arg(args, 0), "puts")
	m.stdout.WriteString(s)
	m.stdout.WriteByte('\n')
	return IntVal(int64(len(s) + 1))
}

func bPutchar(m *Machine, args []Value) Value {
	c := byte(arg(args, 0).AsInt())
	m.stdout.WriteByte(c)
	return IntVal(int64(c))
}

func bGetchar(m *Machine, args []Value) Value {
	if m.stdinPos >= len(m.stdin) {
		return IntVal(-1)
	}
	c := m.stdin[m.stdinPos]
	m.stdinPos++
	return IntVal(int64(c))
}

// ---- Stdlib ----

func bAtoi(m *Machine, args []Value) Value {
	s := strings.TrimSpace(m.cstr(arg(args, 0), "atoi"))
	end := 0
	if end < len(s) && (s[end] == '-' || s[end] == '+') {
		end++
	}
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	v, _ := strconv.ParseInt(s[:end], 10, 64)
	return IntVal(normInt(v, 4, true))
}

func bAbs(m *Machine, args []Value) Value {
	v := arg(args, 0).AsInt()
	if v < 0 {
		v = -v
	}
	return IntVal(v)
}

func bRand(m *Machine, args []Value) Value {
	m.rngState = m.rngState*6364136223846793005 + 1442695040888963407
	return IntVal(int64((m.rngState >> 33) & 0x7fff))
}

func bSrand(m *Machine, args []Value) Value {
	m.rngState = uint64(arg(args, 0).AsInt())*6364136223846793005 + 1
	return Value{}
}

func bExit(m *Machine, args []Value) Value {
	panic(exitPanic{code: int(arg(args, 0).AsInt())})
}

func bAbort(m *Machine, args []Value) Value {
	m.trapf("abort", "abort() called")
	return Value{}
}

func bSqrt(m *Machine, args []Value) Value {
	return FloatVal(math.Sqrt(arg(args, 0).AsFloat()))
}

func bTime(m *Machine, args []Value) Value {
	m.timeTick++
	return IntVal(m.timeTick)
}

// bQsort sorts n elements of the given size using the comparator function
// pointer — an exercise of calls back from "library" code into cured code.
func bQsort(m *Machine, args []Value) Value {
	base := arg(args, 0)
	n := int(arg(args, 1).AsInt())
	size := uint32(arg(args, 2).AsInt())
	cmp := arg(args, 3)
	m.requireSpan(base, uint32(n)*size, "qsort")
	if n <= 1 {
		return Value{}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	elemPtr := func(i int) Value {
		p := base.P + uint32(i)*size
		v := SeqVal(p, base.B, base.E)
		v.RT = base.RT // preserve run-time type info across the boundary
		return v
	}
	sort.SliceStable(idx, func(a, b int) bool {
		r := m.callPtr(cmp.P, []Value{elemPtr(idx[a]), elemPtr(idx[b])}, nil)
		return r.AsInt() < 0
	})
	// Apply the permutation via a scratch copy.
	scratch := m.mem.Alloc(uint32(n)*size, mem.RegHeap, "qsort-tmp")
	for i, j := range idx {
		m.check(m.mem.Copy(scratch.Addr+uint32(i)*size, base.P+uint32(j)*size, size))
	}
	m.check(m.mem.Copy(base.P, scratch.Addr, uint32(n)*size))
	m.check(m.mem.Free(scratch.Addr))
	return Value{}
}

// ---- Library-compatibility demos ----

// bGethostbyname returns a pointer to a struct hostent laid out exactly as
// the C library would (thin pointers, C offsets):
//
//	struct hostent { char *h_name; char **h_aliases; int h_addrtype; };
//
// In cured mode the builtin also registers metadata for the embedded
// pointers in the shadow structure — the boundary validation step of §4.2.
func bGethostbyname(m *Machine, args []Value) Value {
	name := m.cstr(arg(args, 0), "gethostbyname")
	if m.libcState.hostent == 0 {
		m.libcState.hostent = m.buildHostent(name)
	}
	h := m.libcState.hostent
	return SeqVal(h, h, h+12)
}

func (m *Machine) buildHostent(name string) uint32 {
	writeStr := func(s string) (uint32, uint32) {
		b := m.mem.Alloc(uint32(len(s))+1, mem.RegGlobal, "libc-str")
		for i := 0; i < len(s); i++ {
			m.check(m.mem.WriteInt(b.Addr+uint32(i), 1, int64(s[i])))
		}
		return b.Addr, b.End()
	}
	nameP, nameE := writeStr(name)
	a1, a1e := writeStr("alias0." + name)
	a2, a2e := writeStr("alias1." + name)
	// h_aliases: char*[3] with NULL terminator (thin pointers).
	arr := m.mem.Alloc(12, mem.RegGlobal, "libc-aliases")
	m.check(m.mem.WriteWord(arr.Addr, a1))
	m.check(m.mem.WriteWord(arr.Addr+4, a2))
	m.check(m.mem.WriteWord(arr.Addr+8, 0))
	// struct hostent itself.
	h := m.mem.Alloc(12, mem.RegGlobal, "libc-hostent")
	m.check(m.mem.WriteWord(h.Addr, nameP))
	m.check(m.mem.WriteWord(h.Addr+4, arr.Addr))
	m.check(m.mem.WriteInt(h.Addr+8, 4, 2)) // AF_INET
	if m.curedMode() {
		// Boundary validation: generate metadata for the library-built
		// structure so split-typed reads see correct bounds.
		m.shadowMeta[h.Addr] = metaEntry{b: nameP, e: nameE}
		m.shadowMeta[h.Addr+4] = metaEntry{b: arr.Addr, e: arr.End()}
		m.shadowMeta[arr.Addr] = metaEntry{b: a1, e: a1e}
		m.shadowMeta[arr.Addr+4] = metaEntry{b: a2, e: a2e}
	}
	return h.Addr
}

// ioLatency simulates the cost of a network/disk round trip: a fixed
// syscall cost plus a per-byte wire cost. It is identical for raw and
// cured runs, so I/O-bound workloads (Apache modules, ftpd, the drivers)
// show the paper's ≈1.0 slowdown ratios while CPU-bound code does not.
func (m *Machine) ioLatency(n uint32) {
	m.addCost(2500 + 40*uint64(n))
	work := 4000 + 60*uint64(n)
	s := m.libcState.ioSink | 1
	for i := uint64(0); i < work; i++ {
		s = s*2862933555777941757 + 3037000493
	}
	m.libcState.ioSink = s
}

// bSimRecv fills a buffer with deterministic pseudo-network bytes.
func bSimRecv(m *Machine, args []Value) Value {
	buf := arg(args, 0)
	n := uint32(arg(args, 1).AsInt())
	m.requireSpan(buf, n, "sim_recv")
	m.ioLatency(n)
	for i := uint32(0); i < n; i++ {
		m.libcState.simRecvN++
		c := byte('a' + (m.libcState.simRecvN*131)%26)
		m.check(m.mem.WriteInt(buf.P+i, 1, int64(c)))
	}
	return IntVal(int64(n))
}

// bSimSend consumes a buffer (the "network" write).
func bSimSend(m *Machine, args []Value) Value {
	buf := arg(args, 0)
	n := uint32(arg(args, 1).AsInt())
	m.requireSpan(buf, n, "sim_send")
	m.ioLatency(n)
	bs, err := m.mem.Bytes(buf.P, n)
	m.check(err)
	for _, c := range bs {
		m.libcState.simSentN += uint64(c)
	}
	return IntVal(int64(n))
}

// ---- Wrapper helpers (§4.1) ----

// bPtrof strips metadata for the underlying library call. In this VM the
// "thin pointer" is the same machine word, and the simulated library
// resolves provenance from the block map, so stripping is representational:
// the value is returned unchanged (a real CCured build would pass only the
// p field here).
func bPtrof(m *Machine, args []Value) Value {
	return arg(args, 0)
}

// bMkptr builds a fat pointer for a library result, borrowing the metadata
// of a model pointer (Figure 3's __mkptr(result, str)).
func bMkptr(m *Machine, args []Value) Value {
	p, model := arg(args, 0), arg(args, 1)
	out := model
	out.P = p.P
	return out
}

// bVerifyNul checks NUL-termination within bounds.
func bVerifyNul(m *Machine, args []Value) Value {
	if m.curedMode() {
		m.verifyNul(arg(args, 0))
	}
	return Value{}
}

// bEndof returns the end bound of a fat pointer (for wrappers that need
// the remaining capacity).
func bEndof(m *Machine, args []Value) Value {
	v := arg(args, 0)
	return IntVal(int64(v.E))
}
