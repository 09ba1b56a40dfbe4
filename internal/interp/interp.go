// Package interp executes CIL programs over the simulated memory of
// internal/mem. It is the stand-in for "gcc + native execution" in this
// reproduction: uncured programs run with thin pointers and raw C layout
// (optionally under Purify- or Valgrind-style shadow-memory policies), and
// cured programs run with CCured's fat-pointer layouts and explicit check
// instructions, whose failures surface as traps.
package interp

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/flight"
	"gocured/internal/instrument"
	"gocured/internal/mem"
	"gocured/internal/qual"
	"gocured/internal/rtti"
	"gocured/internal/vm"
)

// Policy selects the execution/checking regime.
type Policy int

// Policies.
const (
	// PolicyNone runs the raw program with no checking (baseline "gcc").
	PolicyNone Policy = iota
	// PolicyCured runs an instrumented program, executing its checks.
	PolicyCured
	// PolicyPurify runs the raw program with Purify-style shadow memory
	// (2 status bits per byte, heap red zones; misses stack arrays).
	PolicyPurify
	// PolicyValgrind runs the raw program with Valgrind-style shadow
	// memory (9 bits per byte of program memory, JIT-cost emulation).
	PolicyValgrind
)

var policyNames = [...]string{"none", "cured", "purify", "valgrind"}

func (p Policy) String() string { return policyNames[p] }

// Backend selects the execution engine.
type Backend int

// Backends. The bytecode VM is the default (zero value) and the only
// engine production code selects; the tree walker is the reference
// semantics the differential fuzzer and the golden tests compare it to.
const (
	BackendVM Backend = iota
	BackendTree
)

var backendNames = [...]string{"vm", "tree"}

func (b Backend) String() string { return backendNames[b] }

// Config configures a Machine.
type Config struct {
	Policy Policy
	// Cured must be set when Policy is PolicyCured.
	Cured *instrument.Cured
	// StepLimit bounds executed instructions (0 = default 1e9).
	StepLimit uint64
	// Stdin provides bytes for getchar()/sim input.
	Stdin []byte
	// Args are the program arguments; when main is declared as
	// main(int argc, char **argv) they are materialized in memory with
	// argv[0] set to the program name.
	Args []string
	// Flight, when non-nil, is the flight-recorder ring this run logs
	// into: checks, traps, allocations, fat-pointer conversions, wrapper
	// calls, and call frames. Nil keeps the recorder off; the only cost
	// on every hot path is a single nil comparison.
	Flight *flight.Ring
	// Profile, when non-nil, receives a source-line sample every
	// Profile.Period() interpreter steps.
	Profile *flight.Profile
	// Backend selects the execution engine: the bytecode VM (default) or
	// the tree walker, which only tests and the E11 experiment select.
	// Both produce bit-identical observable results; the differential
	// fuzzer and the backend golden tests enforce it.
	Backend Backend
	// Code is an optional precompiled bytecode module for the program this
	// machine runs (it must have been compiled from the same *cil.Program
	// under the same layout). Nil makes New compile one when Backend is
	// BackendVM; callers that run the same program repeatedly (the
	// pipeline cache, benchmarks) pass a cached module to skip that.
	Code *vm.Module
}

// SiteCount tallies executions and traps of one check site.
type SiteCount struct {
	Hits  uint64
	Traps uint64
	// Elided counts checks the optimizer removed statically at this site —
	// pre-populated from the site table so hot-site reporting stays
	// truthful about what would have executed at -O0.
	Elided uint64
}

// SiteStat is one check site with its counts.
type SiteStat struct {
	Pos    string
	Kind   cil.CheckKind
	Hits   uint64
	Traps  uint64
	Elided uint64
}

// Counters aggregates execution statistics.
type Counters struct {
	Steps  uint64
	Checks uint64
	// ChecksByKind tallies executed checks per kind. It is a fixed array
	// indexed by cil.CheckKind (a map here would hash on every dynamic
	// check).
	ChecksByKind KindCounts
	// Sites lists, in site-ID order, every check site that executed,
	// trapped or had checks elided (file:line:col × check kind): the
	// run-time attribution that lets the optimizer be evaluated against
	// real hit counts.
	Sites  []SiteStat
	Allocs uint64
	// Cost is the deterministic simulated-cycle count: every step, memory
	// access, check, split-metadata traversal, I/O call, and shadow-memory
	// operation adds a calibrated weight. Experiment tables use Cost
	// ratios, which are reproducible run to run (wall time over an
	// interpreter is too noisy for the paper's percent-level effects).
	Cost uint64
}

// TopSites returns the n hottest check sites by hit count (ties broken by
// position then kind, so the order is deterministic).
func (c *Counters) TopSites(n int) []SiteStat {
	out := slices.Clone(c.Sites)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		// Count ties break on source position — numerically, so line 9
		// sorts before line 10 (lexical order would reverse them) — and
		// then on check kind. The order is pinned by TestTopSitesTieOrder.
		if c := diag.ComparePosStrings(out[i].Pos, out[j].Pos); c != 0 {
			return c < 0
		}
		return out[i].Kind < out[j].Kind
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TrapProvenance explains one trap end to end: where it fired, the cured
// program's call stack at that moment, and the inference blame chain of the
// pointer whose check fired (why it had a checked kind at all).
type TrapProvenance struct {
	Pos       string   `json:"pos,omitempty"`
	CheckKind string   `json:"check_kind,omitempty"`
	Stack     []string `json:"stack,omitempty"`
	Blame     []string `json:"blame,omitempty"`
}

// Outcome is the result of a run.
type Outcome struct {
	ExitCode int
	Stdout   string
	// Trap is non-nil if the program died on a memory-safety violation.
	Trap *mem.Trap
	// TrapProv explains the trap (nil when the run did not trap).
	TrapProv *TrapProvenance
	// Flight is the run's flight-recorder ring (nil unless Config.Flight
	// was set) and BlackBox the trap-time snapshot cut from it (nil when
	// the run did not trap or the recorder was off).
	Flight   *flight.Ring
	BlackBox *flight.BlackBox
	Counters Counters
	// MemLoads/MemStores are raw memory accesses.
	MemLoads, MemStores uint64
	// ToolReports carries Purify/Valgrind-style diagnostics (those tools
	// report and continue rather than trap).
	ToolReports []string
}

// Machine executes one program instance.
type Machine struct {
	prog   *cil.Program
	lay    vm.Layout
	cured  *instrument.Cured
	hier   *rtti.Hierarchy
	policy Policy

	mem     *mem.Memory
	globals map[*cil.Var]uint32
	strings map[string]uint32

	funcAddr   map[string]uint32
	funcByAddr map[uint32]*cil.Func
	// builtins is the shared builtinTable, read through the machine
	// because the builtins themselves reach calls that look it up (a
	// package-level reference would be an initialization cycle).
	builtins   map[string]builtinFn
	bltnByAddr map[uint32]string

	funcLayouts map[*cil.Func]*funcLayout

	// code is the bytecode module (nil on the tree backend); vmGlobals
	// resolves its global-index table to addresses once, at construction.
	code      *vm.Module
	vmGlobals []uint32

	// siteCounts is the dense per-site counter table, indexed by the
	// 1-based static site ID every check carries — the hit path touches no
	// map and renders no position string. finishSites reports its
	// non-zero rows as Counters.Sites.
	siteCounts []SiteCount

	// framePool recycles activation records (and their register files)
	// across calls; deep call chains would otherwise allocate one frame
	// per call.
	framePool []*frame
	// argStack holds the argument Values of the builtin and indirect calls
	// in progress (vmArgs), so a call builds no per-call slice.
	argStack []Value

	shadowMeta   map[uint32]metaEntry
	policyShadow *shadowMem

	stdout    bytes.Buffer
	stdin     []byte
	args      []string
	stdinPos  int
	cnt       Counters
	stepLimit uint64
	rngState  uint64
	timeTick  int64

	// rec/prof are the flight recorder hooks; both nil when tracing is
	// off, so the hot paths pay one branch each. sampleIn counts down
	// steps to the next profile sample.
	rec      *flight.Ring
	prof     *flight.Profile
	sampleIn uint64

	// frames mirrors the call stack for trap attribution; curPos tracks the
	// source position of the statement being executed and curCheck the check
	// instruction in flight. Trap records are decorated from these at trap
	// creation time — by the time Run's recover sees the panic, the deferred
	// frame pops have already unwound the stack.
	frames   []*frame
	curPos   diag.Pos
	curCheck *cil.Check
	trapProv *TrapProvenance

	libcState *libcState
}

type funcLayout struct {
	size    uint32
	offsets map[*cil.Var]uint32
}

// frame is one activation record. regs is the bytecode register file
// (empty under the tree backend). Frames are pooled on the Machine.
type frame struct {
	fn   *cil.Func
	base uint32
	lay  *funcLayout
	regs banks
}

func (f *frame) slot(v *cil.Var, m *Machine) uint32 {
	off, ok := f.lay.offsets[v]
	if !ok {
		m.trapf("internal", "variable %q has no slot in %q", v.Name, f.fn.Name)
	}
	return f.base + off
}

// getFrame takes a pooled activation record (or allocates one) with room
// for nregs registers.
func (m *Machine) getFrame(fn *cil.Func, base uint32, lay *funcLayout, nregs int) *frame {
	var fr *frame
	if n := len(m.framePool); n > 0 {
		fr = m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
	} else {
		fr = &frame{}
	}
	fr.fn, fr.base, fr.lay = fn, base, lay
	fr.regs.resize(nregs)
	return fr
}

// putFrame returns an activation record to the pool. The metadata bank
// may hold pointers into the RTTI hierarchy; clearing it is unnecessary
// (the next call overwrites written registers before reading them) and
// the hierarchy is program-lifetime anyway.
func (m *Machine) putFrame(fr *frame) {
	fr.fn, fr.lay = nil, nil
	m.framePool = append(m.framePool, fr)
}

// control-flow signals.
type signal int

const (
	sigNext signal = iota
	sigBreak
	sigContinue
	sigReturn
)

// trapPanic unwinds the interpreter on a memory trap.
type trapPanic struct{ t *mem.Trap }

// exitPanic unwinds on exit().
type exitPanic struct{ code int }

const (
	// stackSize is every machine's stack, in bytes.
	stackSize = 1 << 20
	// rngSeed is rand()'s state before any srand(): the LCG's first step
	// from a zero seed.
	rngSeed = 1442695040888963407
)

// New builds a machine for prog under cfg. For PolicyCured, cfg.Cured.Prog
// must be the (instrumented) program to run.
func New(prog *cil.Program, cfg Config) *Machine {
	m := &Machine{
		prog:        prog,
		policy:      cfg.Policy,
		mem:         mem.New(),
		globals:     make(map[*cil.Var]uint32),
		strings:     make(map[string]uint32),
		funcAddr:    make(map[string]uint32),
		funcByAddr:  make(map[uint32]*cil.Func),
		bltnByAddr:  make(map[uint32]string),
		funcLayouts: make(map[*cil.Func]*funcLayout),
		shadowMeta:  make(map[uint32]metaEntry),
		stdin:       cfg.Stdin,
		args:        cfg.Args,
		stepLimit:   cfg.StepLimit,
		rngState:    rngSeed,
		libcState:   &libcState{},
	}
	if m.stepLimit == 0 {
		m.stepLimit = 1_000_000_000
	}
	if cfg.Policy == PolicyCured {
		m.cured = cfg.Cured
		m.prog = cfg.Cured.Prog
		m.lay = cfg.Cured.Lay
		m.hier = cfg.Cured.Res.Hier
		m.siteCounts = make([]SiteCount, len(m.cured.Sites)+1)
		for i, s := range m.cured.Sites {
			m.siteCounts[i+1].Elided = uint64(s.Elided)
		}
	} else {
		m.lay = instrument.RawLayout{}
	}
	if cfg.Policy == PolicyPurify || cfg.Policy == PolicyValgrind {
		m.policyShadow = newShadowMem(cfg.Policy)
	}
	if cfg.Flight != nil {
		m.rec = cfg.Flight
		if m.cured != nil {
			sites := make([]flight.Site, len(m.cured.Sites))
			for i, s := range m.cured.Sites {
				sites[i] = flight.Site{Pos: s.Pos, Kind: s.Kind.String()}
			}
			m.rec.SetSites(sites)
		}
	}
	if cfg.Profile != nil {
		m.prof = cfg.Profile
		m.sampleIn = cfg.Profile.Period()
	}
	m.builtins = builtinTable

	if cfg.Backend == BackendVM {
		if cfg.Code != nil {
			m.code = cfg.Code
		} else {
			m.code = vm.Compile(m.prog, m.lay)
		}
	}
	m.layoutGlobals()
	if m.code != nil {
		// Bind the module's global-index table to this machine's layout
		// once; OpAddrGlobal is then a slice index.
		m.vmGlobals = make([]uint32, len(m.code.Globals))
		for i, v := range m.code.Globals {
			m.vmGlobals[i] = m.globals[v]
		}
	}
	m.mem.InitStack(stackSize)
	return m
}

// Stdout returns the output produced so far.
func (m *Machine) Stdout() string { return m.stdout.String() }

// Run executes main() and returns the outcome. Traps are reported in the
// outcome, not as Go errors; Go errors mean the program is malformed.
func (m *Machine) Run() (out *Outcome, err error) {
	mainFn := m.prog.Lookup("main")
	if mainFn == nil {
		return nil, fmt.Errorf("program has no main function")
	}
	out = &Outcome{}
	defer func() {
		if r := recover(); r != nil {
			switch p := r.(type) {
			case trapPanic:
				out.Trap = p.t
				out.TrapProv = m.trapProv
			case exitPanic:
				out.ExitCode = p.code
			default:
				panic(r)
			}
		}
		out.Stdout = m.stdout.String()
		m.finishSites()
		out.Counters = m.cnt
		out.MemLoads = m.mem.Loads
		out.MemStores = m.mem.Stores
		out.Counters.Cost += m.mem.Loads + m.mem.Stores
		if m.policyShadow != nil {
			out.ToolReports = m.policyShadow.reports
		}
		out.Flight = m.rec
		if m.rec != nil && out.Trap != nil {
			// The black box: the last events up to and including the trap,
			// with the trap's own attribution attached.
			out.BlackBox = flight.Snapshot(m.rec, 128)
			out.BlackBox.Stack = out.Trap.Stack
			if out.TrapProv != nil {
				out.BlackBox.Blame = out.TrapProv.Blame
			}
		}
		err = nil
	}()
	ret := m.call(mainFn, m.mainArgs(mainFn))
	out.ExitCode = int(ret.AsInt())
	return out, nil
}

// mainArgs materializes argc/argv for main(int, char**): the strings are
// interned, argv is an array of pointers in the layout main's parameter
// type demands, and both carry full bounds.
func (m *Machine) mainArgs(mainFn *cil.Func) []Value {
	if len(mainFn.Params) < 2 {
		return nil
	}
	argvTy := mainFn.Params[1].Type
	if !argvTy.IsPointer() || !argvTy.Elem.IsPointer() {
		return nil
	}
	args := append([]string{"a.out"}, m.args...)
	elemTy := argvTy.Elem
	esz := uint32(m.lay.Sizeof(elemTy))
	blk := m.mem.Alloc(esz*uint32(len(args)+1), mem.RegGlobal, "argv")
	for i, a := range args {
		m.store(blk.Addr+uint32(i)*esz, elemTy, m.internString(a))
	}
	return []Value{
		IntVal(int64(len(args))),
		SeqVal(blk.Addr, blk.Addr, blk.End()),
	}
}

func (m *Machine) trapf(kind, format string, args ...any) {
	t := mem.NewTrap(kind, format, args...)
	m.decorateTrap(t)
	panic(trapPanic{t})
}

// check converts a memory error into a trap. It stays small enough to
// inline into every memory access; raise does the work.
func (m *Machine) check(err error) {
	if err != nil {
		m.raise(err)
	}
}

// raise unwinds the machine with err as a trap.
func (m *Machine) raise(err error) {
	if t, ok := err.(*mem.Trap); ok {
		m.decorateTrap(t)
		panic(trapPanic{t})
	}
	t := mem.NewTrap("error", "%v", err)
	m.decorateTrap(t)
	panic(trapPanic{t})
}

// decorateTrap attaches the trapping statement's source position and the
// live call stack to t, and records the run's trap provenance (including
// the inference blame chain when the trap fired inside a check). It must
// run at trap-creation time: panic unwinding pops the frames.
func (m *Machine) decorateTrap(t *mem.Trap) {
	pos := m.curPos
	if m.curCheck != nil && m.curCheck.Pos.IsValid() {
		pos = m.curCheck.Pos
	}
	if t.Pos == "" && pos.IsValid() {
		t.Pos = pos.String()
	}
	if t.Stack == nil {
		t.Stack = m.stackTrace()
	}
	if m.curCheck != nil {
		m.siteFor(m.curCheck).Traps++
	}
	if m.rec != nil {
		site := int32(0)
		if m.curCheck != nil {
			site = m.curCheck.Site
		}
		m.rec.Record(flight.Event{TS: m.cnt.Cost, Kind: flight.EvTrap, Site: site, Name: t.Kind, Pos: t.Pos})
	}
	if m.trapProv == nil {
		tp := &TrapProvenance{Pos: t.Pos, Stack: t.Stack}
		if m.curCheck != nil {
			tp.CheckKind = m.curCheck.Kind.String()
			if m.cured != nil && m.curCheck.Ptr != nil {
				if ch := m.cured.Res.Explain(m.curCheck.Ptr.Type()); ch != nil {
					tp.Blame = ch.Lines()
				}
			}
		}
		m.trapProv = tp
	}
}

// stackTrace renders the live call stack, innermost frame first.
func (m *Machine) stackTrace() []string {
	out := make([]string, 0, len(m.frames))
	for i := len(m.frames) - 1; i >= 0; i-- {
		out = append(out, m.frames[i].fn.Name)
	}
	return out
}

// siteFor returns the per-site counter of c: a slice index by the site ID
// AssignSites stamped on every check, with no map and no allocation.
func (m *Machine) siteFor(c *cil.Check) *SiteCount { return &m.siteCounts[c.Site] }

// finishSites reports the non-zero rows of the dense site-counter table as
// Counters.Sites. It runs once, when the run ends.
func (m *Machine) finishSites() {
	for id := 1; id < len(m.siteCounts); id++ {
		sc := m.siteCounts[id]
		if sc == (SiteCount{}) {
			continue // never hit, never trapped, nothing elided: not a row
		}
		info := m.cured.Sites[id-1]
		m.cnt.Sites = append(m.cnt.Sites, SiteStat{Pos: info.Pos, Kind: info.Kind,
			Hits: sc.Hits, Traps: sc.Traps, Elided: sc.Elided})
	}
}

// ---- Globals and layout ----

func (m *Machine) layoutGlobals() {
	// Function descriptors first (so function addresses are stable).
	for _, f := range m.prog.Funcs {
		b := m.mem.Alloc(4, mem.RegCode, "fn:"+f.Name)
		m.funcAddr[f.Name] = b.Addr
		m.funcByAddr[b.Addr] = f
	}
	for _, v := range m.prog.Externs {
		if _, dup := m.funcAddr[v.Name]; dup {
			continue
		}
		b := m.mem.Alloc(4, mem.RegCode, "ext:"+v.Name)
		m.funcAddr[v.Name] = b.Addr
		m.bltnByAddr[b.Addr] = v.Name
	}
	for _, g := range m.prog.Globals {
		size := m.lay.Sizeof(g.Var.Type)
		b := m.mem.Alloc(uint32(size), mem.RegGlobal, g.Var.Name)
		m.globals[g.Var] = b.Addr
	}
	for _, g := range m.prog.Globals {
		if g.Init != nil {
			m.applyInit(m.globals[g.Var], g.Var.Type, g.Init)
		}
	}
}

func (m *Machine) applyInit(addr uint32, ty *ctypes.Type, init *cil.Init) {
	switch {
	case init == nil || init.Zero:
	case init.IsList:
		switch ty.Kind {
		case ctypes.Array:
			esz := uint32(m.lay.Sizeof(ty.Elem))
			for i, e := range init.List {
				m.applyInit(addr+uint32(i)*esz, ty.Elem, e)
			}
		case ctypes.Struct:
			for i, e := range init.List {
				if i >= len(ty.SU.Fields) {
					break
				}
				f := ty.SU.Fields[i]
				m.applyInit(addr+uint32(m.lay.FieldOff(f)), f.Type, e)
			}
		default:
			if len(init.List) > 0 {
				m.applyInit(addr, ty, init.List[0])
			}
		}
	default:
		v := m.evalConstExpr(init.Expr)
		v = m.convert(v, init.Expr.Type(), ty)
		m.store(addr, ty, v)
	}
}

// evalConstExpr evaluates static-initializer expressions (no frame).
func (m *Machine) evalConstExpr(e cil.Expr) Value {
	switch x := e.(type) {
	case *cil.Const:
		return IntVal(x.I)
	case *cil.FConst:
		return FloatVal(x.F)
	case *cil.SizeOf:
		return IntVal(int64(m.lay.Sizeof(x.Of)))
	case *cil.StrConst:
		return m.internString(x.S)
	case *cil.FnConst:
		return PtrVal(m.funcAddrOf(x.Name))
	case *cil.AddrOf:
		if x.LV.Var != nil && x.LV.Var.Global {
			addr := m.globals[x.LV.Var]
			size := uint32(m.lay.Sizeof(x.LV.Var.Type))
			return SeqVal(addr, addr, addr+size)
		}
	case *cil.Cast:
		v := m.evalConstExpr(x.X)
		return m.convert(v, x.X.Type(), x.To)
	}
	m.trapf("init", "unsupported static initializer %T", e)
	return Value{}
}

func (m *Machine) internString(s string) Value {
	if addr, ok := m.strings[s]; ok {
		return SeqVal(addr, addr, addr+uint32(len(s))+1)
	}
	b := m.mem.Alloc(uint32(len(s))+1, mem.RegGlobal, "str")
	for i := 0; i < len(s); i++ {
		m.check(m.mem.WriteInt(b.Addr+uint32(i), 1, int64(s[i])))
	}
	m.check(m.mem.WriteInt(b.Addr+uint32(len(s)), 1, 0))
	m.strings[s] = b.Addr
	return SeqVal(b.Addr, b.Addr, b.End())
}

func (m *Machine) funcAddrOf(name string) uint32 {
	if a, ok := m.funcAddr[name]; ok {
		return a
	}
	// Unknown extern used only by address: allocate a descriptor lazily.
	b := m.mem.Alloc(4, mem.RegCode, "ext:"+name)
	m.funcAddr[name] = b.Addr
	m.bltnByAddr[b.Addr] = name
	return b.Addr
}

func (m *Machine) layoutOf(fn *cil.Func) *funcLayout {
	if fl, ok := m.funcLayouts[fn]; ok {
		return fl
	}
	// vm.FrameLayout is the single source of truth for frame layout: the
	// bytecode compiler resolves slots through it at compile time, so both
	// backends give a variable the same simulated address.
	size, offsets := vm.FrameLayout(fn, m.lay)
	fl := &funcLayout{size: size, offsets: offsets}
	m.funcLayouts[fn] = fl
	return fl
}

// ---- Calls ----

// call invokes a defined function with already-converted argument values,
// dispatching to its bytecode on the VM backend (direct bytecode call sites
// skip this and jump to vmCall with a linked *FuncCode; this path serves
// the tree backend, indirect calls and builtin callbacks).
func (m *Machine) call(fn *cil.Func, args []Value) Value {
	if m.code != nil {
		return m.vmCall(m.code.ByFunc[fn], args)
	}
	fl := m.layoutOf(fn)
	blk, err := m.mem.PushFrame(fl.size, fn.Name)
	m.check(err)
	fr := m.getFrame(fn, blk.Addr, fl, 0)
	for i, p := range fn.Params {
		if i < len(args) {
			m.store(fr.slot(p, m), p.Type, args[i])
		}
	}
	if m.rec != nil {
		m.rec.Record(flight.Event{TS: m.cnt.Cost, Kind: flight.EvCall, Name: fn.Name})
	}
	m.frames = append(m.frames, fr)
	defer func() {
		// Runs on trap unwinding too, so B/E frame pairs stay balanced in
		// the exported trace (the trap instant lands between them).
		if m.rec != nil {
			m.rec.Record(flight.Event{TS: m.cnt.Cost, Kind: flight.EvRet, Name: fn.Name})
		}
		m.frames = m.frames[:len(m.frames)-1]
		m.mem.PopFrame()
		m.putFrame(fr)
	}()
	sig, ret := m.execBlock(fr, fn.Body)
	if sig == sigReturn {
		return ret
	}
	return IntVal(0)
}

// callPtr invokes a function through an address (function pointer or
// extern builtin).
func (m *Machine) callPtr(addr uint32, args []Value, argTypes []*ctypes.Type) Value {
	if fn, ok := m.funcByAddr[addr]; ok {
		// Convert args to the parameter occurrence types.
		conv := make([]Value, len(args))
		for i := range args {
			conv[i] = args[i]
			if i < len(fn.Params) && i < len(argTypes) {
				conv[i] = m.convert(args[i], argTypes[i], fn.Params[i].Type)
			}
		}
		return m.call(fn, conv)
	}
	if name, ok := m.bltnByAddr[addr]; ok {
		if bf, ok := m.builtins[name]; ok {
			m.recEvent(flight.EvWrapper, name, 0)
			return bf(m, args)
		}
		m.trapf("link", "call to unimplemented external function %q", name)
	}
	m.trapf("call", "call through invalid function pointer 0x%x", addr)
	return Value{}
}

// ---- Statements ----

func (m *Machine) execBlock(fr *frame, b *cil.Block) (signal, Value) {
	for _, s := range b.Stmts {
		if sig, v := m.execStmt(fr, s); sig != sigNext {
			return sig, v
		}
	}
	return sigNext, Value{}
}

func (m *Machine) addCost(n uint64) { m.cnt.Cost += n }

func (m *Machine) step() {
	m.cnt.Steps++
	m.cnt.Cost++
	if m.cnt.Steps > m.stepLimit {
		m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
	}
	if m.prof != nil {
		m.sampleStep()
	}
}

// sampleStep decrements the sampling countdown and, when it hits zero,
// records the current source line in the step profile (and an EvSample
// instant in the ring so samples are visible on the timeline too).
func (m *Machine) sampleStep() {
	m.sampleIn--
	if m.sampleIn > 0 {
		return
	}
	m.sampleIn = m.prof.Period()
	pos := "<generated>"
	if m.curPos.IsValid() {
		pos = fmt.Sprintf("%s:%d", m.curPos.File, m.curPos.Line)
	}
	m.prof.Sample(pos)
	if m.rec != nil {
		m.rec.Record(flight.Event{TS: m.cnt.Cost, Kind: flight.EvSample, Pos: pos})
	}
}

// recEvent records one flight event stamped with the simulated-cycle
// clock. Callers on hot paths guard with `if m.rec != nil` themselves;
// recEvent re-checks so cold paths can call it unconditionally.
func (m *Machine) recEvent(kind flight.EvKind, name string, arg uint64) {
	if m.rec == nil {
		return
	}
	m.rec.Record(flight.Event{TS: m.cnt.Cost, Kind: kind, Name: name, Arg: arg})
}

// backEdge counts a loop back-edge against the step limit without charging
// simulated cost (the calibrated cost model charges per instruction, and
// both sides of every slowdown ratio would pay the back-edge equally).
// Without it a loop whose body executes no statements — `for (;;) {}` —
// would spin forever, immune to the step limit that the pipeline relies on
// as its hard backstop for runaway jobs.
func (m *Machine) backEdge() {
	m.cnt.Steps++
	if m.cnt.Steps > m.stepLimit {
		m.trapf("timeout", "step limit (%d) exceeded", m.stepLimit)
	}
}

func (m *Machine) execStmt(fr *frame, s cil.Stmt) (signal, Value) {
	switch st := s.(type) {
	case *cil.Block:
		return m.execBlock(fr, st)
	case *cil.SInstr:
		m.step()
		if p := st.Ins.Position(); p.IsValid() {
			m.curPos = p
		}
		m.execInstr(fr, st.Ins)
		return sigNext, Value{}
	case *cil.If:
		m.step()
		if m.evalExpr(fr, st.Cond).Truthy() {
			return m.execBlock(fr, st.Then)
		}
		if st.Else != nil {
			return m.execBlock(fr, st.Else)
		}
		return sigNext, Value{}
	case *cil.Loop:
		for {
			m.backEdge()
			sig, v := m.execBlock(fr, st.Body)
			switch sig {
			case sigBreak:
				return sigNext, Value{}
			case sigReturn:
				return sig, v
			}
			if st.Post != nil {
				sig, v = m.execBlock(fr, st.Post)
				switch sig {
				case sigBreak:
					return sigNext, Value{}
				case sigReturn:
					return sig, v
				}
			}
		}
	case *cil.Break:
		return sigBreak, Value{}
	case *cil.Continue:
		return sigContinue, Value{}
	case *cil.Return:
		m.step()
		if st.Pos.IsValid() {
			m.curPos = st.Pos
		}
		if st.X == nil {
			return sigReturn, Value{}
		}
		v := m.evalExpr(fr, st.X)
		v = m.convert(v, st.X.Type(), fr.fn.Type.Fn.Ret)
		return sigReturn, v
	case *cil.Switch:
		m.step()
		x := m.evalExpr(fr, st.X).AsInt()
		start := -1
		dflt := -1
		for i, c := range st.Cases {
			if c.IsDefault {
				dflt = i
			} else if c.Val == x {
				start = i
				break
			}
		}
		if start < 0 {
			start = dflt
		}
		if start < 0 {
			return sigNext, Value{}
		}
		// C fallthrough: run case bodies from the match until a break.
		for i := start; i < len(st.Cases); i++ {
			for _, s2 := range st.Cases[i].Body {
				sig, v := m.execStmt(fr, s2)
				switch sig {
				case sigBreak:
					return sigNext, Value{}
				case sigContinue, sigReturn:
					return sig, v
				}
			}
		}
		return sigNext, Value{}
	}
	m.trapf("internal", "unknown statement %T", s)
	return sigNext, Value{}
}

func (m *Machine) execInstr(fr *frame, i cil.Instr) {
	switch in := i.(type) {
	case *cil.Set:
		// Aggregate assignment copies bytes; scalars go through values.
		if in.LV.Ty.Kind == ctypes.Struct || in.LV.Ty.Kind == ctypes.Array {
			m.execAggregateSet(fr, in)
			return
		}
		v := m.evalExpr(fr, in.RHS)
		v = m.convert(v, in.RHS.Type(), in.LV.Ty)
		addr, _, _ := m.evalLval(fr, in.LV)
		m.store(addr, in.LV.Ty, v)
	case *cil.Call:
		m.execCall(fr, in)
	case *cil.Check:
		m.execCheck(fr, in)
	default:
		m.trapf("internal", "unknown instruction %T", i)
	}
}

func (m *Machine) execAggregateSet(fr *frame, in *cil.Set) {
	lhsAddr, _, _ := m.evalLval(fr, in.LV)
	rhs, ok := in.RHS.(*cil.Lval)
	if !ok {
		m.trapf("internal", "aggregate assignment from non-lvalue %T", in.RHS)
	}
	rhsAddr, _, _ := m.evalLval(fr, rhs.LV)
	m.check(m.mem.Copy(lhsAddr, rhsAddr, uint32(m.lay.Sizeof(in.LV.Ty))))
}

func (m *Machine) execCall(fr *frame, in *cil.Call) {
	args := make([]Value, len(in.Args))
	argTypes := make([]*ctypes.Type, len(in.Args))
	for i, a := range in.Args {
		args[i] = m.evalExpr(fr, a)
		argTypes[i] = a.Type()
	}
	var ret Value
	if fc, ok := in.Fn.(*cil.FnConst); ok {
		if fn := m.prog.Lookup(fc.Name); fn != nil {
			conv := make([]Value, len(args))
			for i := range args {
				conv[i] = args[i]
				if i < len(fn.Params) {
					conv[i] = m.convert(args[i], argTypes[i], fn.Params[i].Type)
				}
			}
			ret = m.call(fn, conv)
		} else if bf, ok := m.builtins[fc.Name]; ok {
			m.recEvent(flight.EvWrapper, fc.Name, 0)
			ret = bf(m, args)
		} else {
			m.trapf("link", "call to undefined function %q", fc.Name)
		}
	} else {
		fnv := m.evalExpr(fr, in.Fn)
		ret = m.callPtr(fnv.P, args, argTypes)
	}
	if in.Result != nil {
		ft := in.Fn.Type()
		if ft.IsPointer() {
			ft = ft.Elem
		}
		if ft.Kind == ctypes.Func {
			ret = m.convert(ret, ft.Fn.Ret, in.Result.Ty)
		}
		addr, _, _ := m.evalLval(fr, in.Result)
		m.store(addr, in.Result.Ty, ret)
	}
}

// ---- Expressions ----

func (m *Machine) evalExpr(fr *frame, e cil.Expr) Value {
	switch x := e.(type) {
	case *cil.Const:
		return IntVal(x.I)
	case *cil.FConst:
		return FloatVal(x.F)
	case *cil.SizeOf:
		return IntVal(int64(m.lay.Sizeof(x.Of)))
	case *cil.StrConst:
		return m.internString(x.S)
	case *cil.FnConst:
		return PtrVal(m.funcAddrOf(x.Name))
	case *cil.Lval:
		addr, _, _ := m.evalLval(fr, x.LV)
		if m.policyShadow != nil {
			m.policyShadow.onLoad(m, addr, uint32(m.lay.Sizeof(x.LV.Ty)))
		}
		return m.load(addr, x.LV.Ty)
	case *cil.AddrOf:
		addr, b, e2 := m.evalLval(fr, x.LV)
		v := Value{K: VPtr, P: addr, B: b, E: e2}
		switch m.lay.KindOf(x.Ty) {
		case qual.Wild:
			if blk := m.mem.BlockAt(addr); blk != nil {
				blk.MakeWild()
				v.B = blk.Addr
			}
		case qual.Rtti:
			// The address of an object knows its exact static type.
			if m.hier != nil && x.Ty.Elem != nil {
				v.RT = m.hier.Of(x.Ty.Elem)
			}
		}
		return v
	case *cil.BinOp:
		return m.evalBinOp(fr, x)
	case *cil.UnOp:
		v := m.evalExpr(fr, x.X)
		switch x.Op {
		case cil.OpNeg:
			if v.K == VFloat {
				return FloatVal(-v.F)
			}
			t := x.Ty
			return IntVal(normInt(-v.AsInt(), t.Size, t.Signed))
		case cil.OpNot:
			if v.Truthy() {
				return IntVal(0)
			}
			return IntVal(1)
		case cil.OpBitNot:
			t := x.Ty
			return IntVal(normInt(^v.AsInt(), t.Size, t.Signed))
		}
	case *cil.Cast:
		v := m.evalExpr(fr, x.X)
		return m.convertChecked(v, x.X.Type(), x.To, x.Trusted)
	}
	m.trapf("internal", "unknown expression %T", e)
	return Value{}
}

func (m *Machine) evalBinOp(fr *frame, x *cil.BinOp) Value {
	a := m.evalExpr(fr, x.A)
	b := m.evalExpr(fr, x.B)
	switch x.Op {
	case cil.OpAddPI, cil.OpSubPI:
		elem := x.A.Type().Elem
		esz := int64(m.lay.Sizeof(elem))
		idx := b.AsInt()
		if x.Op == cil.OpSubPI {
			idx = -idx
		}
		out := a
		out.P = uint32(int64(a.P) + idx*esz)
		return out
	case cil.OpSubPP:
		elem := x.A.Type().Elem
		esz := int64(m.lay.Sizeof(elem))
		if esz == 0 {
			esz = 1
		}
		return IntVal((int64(a.P) - int64(b.P)) / esz)
	}

	if a.K == VFloat || b.K == VFloat {
		af, bf := a.AsFloat(), b.AsFloat()
		switch x.Op {
		case cil.OpAdd:
			return m.fret(x, af+bf)
		case cil.OpSub:
			return m.fret(x, af-bf)
		case cil.OpMul:
			return m.fret(x, af*bf)
		case cil.OpDiv:
			return m.fret(x, af/bf)
		case cil.OpLt:
			return boolVal(af < bf)
		case cil.OpGt:
			return boolVal(af > bf)
		case cil.OpLe:
			return boolVal(af <= bf)
		case cil.OpGe:
			return boolVal(af >= bf)
		case cil.OpEq:
			return boolVal(af == bf)
		case cil.OpNe:
			return boolVal(af != bf)
		}
		m.trapf("arith", "bad float operator %s", x.Op)
	}

	ai, bi := a.AsInt(), b.AsInt()
	t := x.Ty
	signed := t.Kind != ctypes.Int || t.Signed
	norm := func(v int64) Value {
		if t.Kind == ctypes.Int {
			return IntVal(normInt(v, t.Size, t.Signed))
		}
		return IntVal(v)
	}
	switch x.Op {
	case cil.OpAdd:
		return norm(ai + bi)
	case cil.OpSub:
		return norm(ai - bi)
	case cil.OpMul:
		return norm(ai * bi)
	case cil.OpDiv:
		if bi == 0 {
			m.trapf("arith", "division by zero")
		}
		if !signed {
			return norm(int64(uint64(uint32(ai)) / uint64(uint32(bi))))
		}
		return norm(ai / bi)
	case cil.OpRem:
		if bi == 0 {
			m.trapf("arith", "modulo by zero")
		}
		if !signed {
			return norm(int64(uint64(uint32(ai)) % uint64(uint32(bi))))
		}
		return norm(ai % bi)
	case cil.OpShl:
		return norm(ai << uint(bi&63))
	case cil.OpShr:
		if !signed {
			return norm(int64(uint32(ai) >> uint(bi&31)))
		}
		return norm(ai >> uint(bi&63))
	case cil.OpBitAnd:
		return norm(ai & bi)
	case cil.OpBitOr:
		return norm(ai | bi)
	case cil.OpBitXor:
		return norm(ai ^ bi)
	case cil.OpLt:
		return boolVal(cmpInts(a, b, signed) < 0)
	case cil.OpGt:
		return boolVal(cmpInts(a, b, signed) > 0)
	case cil.OpLe:
		return boolVal(cmpInts(a, b, signed) <= 0)
	case cil.OpGe:
		return boolVal(cmpInts(a, b, signed) >= 0)
	case cil.OpEq:
		return boolVal(ai == bi)
	case cil.OpNe:
		return boolVal(ai != bi)
	}
	m.trapf("arith", "bad operator %s", x.Op)
	return Value{}
}

func (m *Machine) fret(x *cil.BinOp, f float64) Value {
	if x.Ty.Kind == ctypes.Float && x.Ty.Size == 4 {
		return FloatVal(float64(float32(f)))
	}
	return FloatVal(f)
}

func cmpInts(a, b Value, signed bool) int {
	// Pointer comparisons are unsigned address comparisons.
	if a.K == VPtr || b.K == VPtr || !signed {
		ua, ub := uint32(a.AsInt()), uint32(b.AsInt())
		switch {
		case ua < ub:
			return -1
		case ua > ub:
			return 1
		}
		return 0
	}
	ai, bi := a.AsInt(), b.AsInt()
	switch {
	case ai < bi:
		return -1
	case ai > bi:
		return 1
	}
	return 0
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// evalLval computes the address of an lvalue along with its home-area
// bounds (used by AddrOf to give SEQ pointers their extent: field steps
// narrow the bounds to the field, index steps keep the whole array).
func (m *Machine) evalLval(fr *frame, lv *cil.Lvalue) (addr, homeB, homeE uint32) {
	var cur *ctypes.Type
	switch {
	case lv.Var != nil:
		v := lv.Var
		if v.Global {
			addr = m.globals[v]
			if addr == 0 {
				m.trapf("internal", "global %q has no storage", v.Name)
			}
		} else {
			addr = fr.slot(v, m)
		}
		cur = v.Type
		homeB = addr
		homeE = addr + uint32(m.lay.Sizeof(cur))
	default:
		pv := m.evalExpr(fr, lv.Mem)
		addr = pv.P
		cur = lv.Mem.Type().Elem
		if pv.B != 0 && pv.E != 0 {
			homeB, homeE = pv.B, pv.E
		} else {
			homeB = addr
			homeE = addr + uint32(m.lay.Sizeof(cur))
		}
	}
	for _, o := range lv.Offset {
		if o.Field != nil {
			addr += uint32(m.lay.FieldOff(o.Field))
			cur = o.Field.Type
			// Field step: the home area narrows to the field.
			homeB = addr
			homeE = addr + uint32(m.lay.Sizeof(cur))
			continue
		}
		idx := m.evalExpr(fr, o.Index).AsInt()
		if cur.Kind == ctypes.Array {
			esz := int64(m.lay.Sizeof(cur.Elem))
			addr = uint32(int64(addr) + idx*esz)
			cur = cur.Elem
			// Index step: keep the array as the home area.
			continue
		}
		m.trapf("internal", "index step on non-array type %s", cur)
	}
	return addr, homeB, homeE
}
