package instrument

import (
	"fmt"
	"math"
	"slices"

	"gocured/internal/cil"
	"gocured/internal/ctypes"
)

// Check-elimination over a real control-flow graph. The paper notes that,
// unlike binary instrumentors, CCured can use static information to remove
// checks; this pass is where that advantage is cashed in. Three
// transformations run per function, in order:
//
//  1. Loop pass (structured tree): checks in the guaranteed prefix of a
//     loop body — the statements that execute on every iteration before
//     anything can write memory or leave the loop, crossing only
//     `if (c) break;` guards — are moved to a guarded preheader when their
//     operands are loop-invariant, and *widened* to a pair of endpoint
//     checks when they are affine in a recognized induction variable
//     (`for (i = i0; i < N; i++) ... a[i]`: check a+i0 and a+N-1 once,
//     instead of a+i every iteration).
//
//  2. Available-check elimination (CFG dataflow): a check is deleted when
//     an identical check is available on *every* path from the entry and
//     nothing that could change its outcome intervenes. Availability is an
//     intersection dataflow over the basic-block graph, so facts survive
//     branches and joins: a check established before an `if` (or in both
//     arms) still covers the code after the join, and a check dominated by
//     an identical unkilled check is always removed (availability on every
//     path subsumes availability on the dominating path).
//
//  3. SEQ coalescing (per block): adjacent SEQ bounds checks on the same
//     base pointer with constant element offsets collapse into the first
//     check, widened to cover the whole constant range (`p[0] + p[1] +
//     p[2]` pays one check, not three).
//
// Safety argument (the differential fuzzer in internal/interp enforces it
// empirically): a hoisted or widened check may trap *earlier* than the
// checks it replaces, but only on executions that would have trapped
// anyway — the guaranteed-prefix rule means the moved check runs in the
// preheader exactly when the first iteration would have run it, and the
// endpoint pair of a widened check fails exactly when some iteration's
// check would have failed (the offsets are monotone in the induction
// variable, so the endpoints bound every intermediate access). Eliminated
// checks are re-proved by an identical check on every incoming path.
// Coalescing can move a bounds trap from a later access in a group to the
// group head, but the group spans no observable effect (checks are emitted
// adjacently, before the statement they guard), so only the trap's column
// and pointer value can differ — never whether the program traps, the trap
// kind, or anything it printed.
//
// The loop pass and availability share one kill rule (writeOf) and one
// per-function fact table (factTable) that hash-conses each check's
// operands to an integer fact ID and computes its dependencies once.
// Availability runs on bitsets indexed by fact ID.

// OptStats summarizes one optimization run over a program.
type OptStats struct {
	// Eliminated counts checks deleted by available-check elimination;
	// Coalesced counts SEQ checks merged into a widened neighbor. Both are
	// static deletions.
	Eliminated int
	Coalesced  int
	// Hoisted counts loop-invariant checks moved to a preheader; Widened
	// counts induction checks replaced by an endpoint pair. These keep a
	// static site but stop executing once per iteration.
	Hoisted int
	Widened int
	// PerFunc maps function name to its per-function statistics.
	PerFunc map[string]*FuncOpt
}

// Removed returns the number of check instructions deleted outright.
func (s *OptStats) Removed() int { return s.Eliminated + s.Coalesced }

// FuncOpt is the per-function optimization summary.
type FuncOpt struct {
	Before, After                           int // static checks in the body
	Eliminated, Hoisted, Widened, Coalesced int
	Blocks                                  int // CFG size
}

// Optimize runs the check optimizer over c.Prog and records the statistics
// on c. Every check it deletes outright is kept on c for AssignSites, which
// attributes it to its site. It must run after Cure and is skipped entirely
// at -O0.
func Optimize(c *Cured) *OptStats {
	st := &OptStats{PerFunc: make(map[string]*FuncOpt)}
	c.elided = c.elided[:0]
	record := func(chk *cil.Check) { c.elided = append(c.elided, chk) }
	facts := newFactTable()
	for _, f := range c.Prog.Funcs {
		fo := &FuncOpt{Before: countChecks(f.Body.Stmts)}
		facts.reset(f)
		f.Body.Stmts = hoistLoops(f.Body.Stmts, facts, fo)
		g := cil.BuildCFG(f)
		fo.Blocks = len(g.Blocks)
		eliminateAvailable(g, f, facts, fo, record)
		coalesceSeq(f.Body, c.Lay, facts, fo, record)
		fo.After = countChecks(f.Body.Stmts)
		st.PerFunc[f.Name] = fo
		st.Eliminated += fo.Eliminated
		st.Hoisted += fo.Hoisted
		st.Widened += fo.Widened
		st.Coalesced += fo.Coalesced
	}
	c.Opt = st
	return st
}

func countChecks(stmts []cil.Stmt) int {
	n := 0
	cil.WalkInstrs(stmts, func(i cil.Instr) {
		if _, ok := i.(*cil.Check); ok {
			n++
		}
	})
	return n
}

// ---- facts, their dependencies and the kill rule ----

// factDeps describes what a check's operands depend on.
type factDeps struct {
	vars []*cil.Var // each variable the operands read, once
	// mem: the operands read memory (through a pointer or a variable's
	// interior) or an address-taken or global variable, so any store
	// through memory may change them.
	mem bool
}

// depsOf computes c's dependencies. The variable lists of one function's
// facts share the table's vars storage.
func (t *factTable) depsOf(c *cil.Check) factDeps {
	var d factDeps
	start := len(t.vars)
	addVar := func(v *cil.Var) {
		if !slices.Contains(t.vars[start:], v) {
			t.vars = append(t.vars, v)
		}
	}
	scan := func(e cil.Expr) {
		cil.WalkExpr(e, func(x cil.Expr) {
			switch v := x.(type) {
			case *cil.Lval:
				if v.LV.Var != nil {
					addVar(v.LV.Var)
					if v.LV.Var.AddrTaken || v.LV.Var.Global || len(v.LV.Offset) > 0 {
						d.mem = true
					}
				} else {
					d.mem = true
				}
			case *cil.AddrOf:
				if v.LV.Mem != nil {
					d.mem = true
				}
			}
		})
	}
	scan(c.Ptr)
	if c.DstLV != nil {
		cil.WalkLvalue(c.DstLV, func(e cil.Expr) { scan(e) })
		if c.DstLV.Var != nil {
			addVar(c.DstLV.Var)
		} else {
			d.mem = true
		}
	}
	d.vars = t.vars[start:len(t.vars):len(t.vars)]
	return d
}

// write is what one instruction may modify.
type write struct {
	v   *cil.Var // the variable assigned (nil when none)
	mem bool     // may store through memory
}

// writeOf is the kill rule, the only code that decides what an instruction
// writes; the loop pass and availability both read it:
//
//   - a Set writes its variable; a Set into a variable's interior (field
//     or index) or through a pointer also writes memory;
//   - a call writes memory, and its result like a Set (a callee cannot
//     touch the caller's non-address-taken locals);
//   - a check writes nothing.
func writeOf(i cil.Instr) write {
	var w write
	var lv *cil.Lvalue
	switch in := i.(type) {
	case *cil.Check:
		return w
	case *cil.Set:
		lv = in.LV
	case *cil.Call:
		w.mem = true
		lv = in.Result
	default:
		panic(fmt.Sprintf("instrument: no kill rule for %T", i))
	}
	if lv != nil {
		w.v = lv.Var
		w.mem = w.mem || lv.Var == nil || len(lv.Offset) > 0
	}
	return w
}

// operand is the hash-cons key of one operand node: its shape, the one
// scalar, name or type identity the shape carries, and the IDs of its
// children. Two operands get one ID exactly when they are the same value
// expression: variables compare by ID (shadowed names must not collide),
// type occurrences by node identity (two casts that print alike can still
// convert between different pointer kinds), and result types not at all.
type operand struct {
	shape opShape
	n     int64        // constant, float bits, operator or variable ID
	s     string       // string literal, function name or field name
	ty    *ctypes.Type // sizeof operand or cast target
	a, b  int32        // child operand IDs
}

type opShape uint8

const (
	opNil opShape = iota
	opConst
	opFConst
	opStr
	opFn
	opSizeOf
	opAddrOf
	opBin
	opUn
	opCast
	// Lvalues: a base, then one node per offset step.
	opLocal
	opGlobal
	opDeref
	opField
	opIndex
)

// factKey identifies one fact: checks with equal keys share a fact ID.
type factKey struct {
	kind cil.CheckKind
	ptr  int32 // operand ID
	size int
	rtti *ctypes.Type
	dst  int32 // operand ID of the destination lvalue, -1 when none
}

// factTable numbers the checks of one function by fact key and holds each
// fact's dependencies, computed once before any pass runs. The optimizer
// keeps one table and resets it per function, so its maps and buffers are
// reused.
type factTable struct {
	ops  map[operand]int32
	keys map[factKey]int
	ids  map[*cil.Check]int
	deps []factDeps // by fact ID
	vars []*cil.Var // storage of the deps' variable lists

	// Availability's reusable storage: kill-mask rows by variable, the
	// bitset words and the per-block "OUT computed" flags.
	varRow map[*cil.Var]int
	words  []uint64
	done   []bool
}

func newFactTable() *factTable {
	return &factTable{ops: make(map[operand]int32), keys: make(map[factKey]int),
		ids: make(map[*cil.Check]int), varRow: make(map[*cil.Var]int)}
}

// reset empties the table and enters the checks of f.
func (t *factTable) reset(f *cil.Func) {
	clear(t.ops)
	clear(t.keys)
	clear(t.ids)
	t.deps = t.deps[:0]
	t.vars = t.vars[:0]
	cil.WalkInstrs(f.Body.Stmts, func(i cil.Instr) {
		if c, ok := i.(*cil.Check); ok {
			t.add(c)
		}
	})
}

// add enters c under its fact key.
func (t *factTable) add(c *cil.Check) {
	k := factKey{kind: c.Kind, ptr: t.expr(c.Ptr), size: c.Size, rtti: c.RttiTarget, dst: -1}
	if c.DstLV != nil {
		k.dst = t.lval(c.DstLV)
	}
	id, ok := t.keys[k]
	if !ok {
		id = len(t.deps)
		t.keys[k] = id
		t.deps = append(t.deps, t.depsOf(c))
	}
	t.ids[c] = id
}

// id returns c's fact ID. A check missing from the table would silently
// share fact 0 and could delete a check that is still needed.
func (t *factTable) id(c *cil.Check) int {
	id, ok := t.ids[c]
	if !ok {
		panic("instrument: check missing from the fact table")
	}
	return id
}

// intern returns the ID of o, numbering it when it is new.
func (t *factTable) intern(o operand) int32 {
	id, ok := t.ops[o]
	if !ok {
		id = int32(len(t.ops))
		t.ops[o] = id
	}
	return id
}

// expr returns the operand ID of e.
func (t *factTable) expr(e cil.Expr) int32 {
	switch x := e.(type) {
	case nil:
		return t.intern(operand{shape: opNil})
	case *cil.Const:
		return t.intern(operand{shape: opConst, n: x.I})
	case *cil.FConst:
		bits := math.Float64bits(x.F)
		if x.F != x.F {
			bits = math.Float64bits(math.NaN()) // every NaN is one value
		}
		return t.intern(operand{shape: opFConst, n: int64(bits)})
	case *cil.StrConst:
		return t.intern(operand{shape: opStr, s: x.S})
	case *cil.FnConst:
		return t.intern(operand{shape: opFn, s: x.Name})
	case *cil.SizeOf:
		return t.intern(operand{shape: opSizeOf, ty: x.Of})
	case *cil.Lval:
		return t.lval(x.LV)
	case *cil.AddrOf:
		return t.intern(operand{shape: opAddrOf, a: t.lval(x.LV)})
	case *cil.BinOp:
		return t.intern(operand{shape: opBin, n: int64(x.Op), a: t.expr(x.A), b: t.expr(x.B)})
	case *cil.UnOp:
		return t.intern(operand{shape: opUn, n: int64(x.Op), a: t.expr(x.X)})
	case *cil.Cast:
		return t.intern(operand{shape: opCast, ty: x.To, a: t.expr(x.X)})
	}
	panic(fmt.Sprintf("instrument: no fact key for %T", e))
}

// lval returns the operand ID of lv.
func (t *factTable) lval(lv *cil.Lvalue) int32 {
	var id int32
	switch {
	case lv.Var == nil:
		id = t.intern(operand{shape: opDeref, a: t.expr(lv.Mem)})
	case lv.Var.Global:
		id = t.intern(operand{shape: opGlobal, n: int64(lv.Var.ID)})
	default:
		id = t.intern(operand{shape: opLocal, n: int64(lv.Var.ID)})
	}
	for _, o := range lv.Offset {
		if o.Field != nil {
			id = t.intern(operand{shape: opField, s: o.Field.Name, a: id})
		} else {
			id = t.intern(operand{shape: opIndex, a: id, b: t.expr(o.Index)})
		}
	}
	return id
}

// ---- loop pass: invariant hoisting and induction widening ----

// loopKills summarizes what one loop (body + post, including nested
// statements) can modify.
type loopKills struct {
	vars map[*cil.Var]int // instructions writing each variable
	mem  bool
	call bool
}

// exitCounts tallies the ways control can leave one loop.
type exitCounts struct {
	breaks, continues, returns int
}

func summarizeLoop(l *cil.Loop) (loopKills, exitCounts) {
	k := loopKills{vars: make(map[*cil.Var]int)}
	var ex exitCounts
	stmts := l.Body.Stmts
	if l.Post != nil {
		stmts = append(append([]cil.Stmt{}, stmts...), l.Post.Stmts...)
	}
	cil.WalkInstrs(stmts, func(i cil.Instr) {
		w := writeOf(i)
		if w.v != nil {
			k.vars[w.v]++
		}
		k.mem = k.mem || w.mem
		if _, ok := i.(*cil.Call); ok {
			k.call = true
		}
	})
	countExits(stmts, 0, &ex)
	return k, ex
}

// countExits tallies Break/Continue/Return statements binding to the loop
// at depth 0. depth counts enclosing Loop nesting; Switch captures Break
// but not Continue.
func countExits(stmts []cil.Stmt, depth int, ex *exitCounts) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *cil.Break:
			if depth == 0 {
				ex.breaks++
			}
		case *cil.Continue:
			if depth == 0 {
				ex.continues++
			}
		case *cil.Return:
			ex.returns++
		case *cil.Block:
			countExits(st.Stmts, depth, ex)
		case *cil.If:
			countExits(st.Then.Stmts, depth, ex)
			if st.Else != nil {
				countExits(st.Else.Stmts, depth, ex)
			}
		case *cil.Loop:
			countExits(st.Body.Stmts, depth+1, ex)
			if st.Post != nil {
				countExits(st.Post.Stmts, depth+1, ex)
			}
		case *cil.Switch:
			for _, c := range st.Cases {
				// A Break here binds to the switch; Continue still binds to
				// our loop.
				var inner exitCounts
				countExits(c.Body, depth+1, &inner)
				if depth == 0 {
					ex.continues += inner.continues
				}
				ex.returns += inner.returns
			}
		}
	}
}

// invariantIn reports whether deps cannot be modified by a loop with the
// given kill summary.
func invariantIn(d factDeps, k loopKills, ignore *cil.Var) bool {
	if d.mem && k.mem {
		return false
	}
	for _, v := range d.vars {
		if v != ignore && k.vars[v] > 0 {
			return false
		}
	}
	return true
}

// hoistLoops walks a statement list innermost-loop-first, building a
// preheader for each loop out of its hoistable prefix checks, and returns
// the list with the preheaders in place (stmts itself when none).
func hoistLoops(stmts []cil.Stmt, facts *factTable, fo *FuncOpt) []cil.Stmt {
	var out []cil.Stmt // nil until some loop gets a preheader
	for i, s := range stmts {
		var pre []cil.Stmt
		switch st := s.(type) {
		case *cil.Loop:
			st.Body.Stmts = hoistLoops(st.Body.Stmts, facts, fo)
			if st.Post != nil {
				st.Post.Stmts = hoistLoops(st.Post.Stmts, facts, fo)
			}
			pre = hoistFromLoop(st, facts, fo)
		case *cil.If:
			st.Then.Stmts = hoistLoops(st.Then.Stmts, facts, fo)
			if st.Else != nil {
				st.Else.Stmts = hoistLoops(st.Else.Stmts, facts, fo)
			}
		case *cil.Switch:
			for _, c := range st.Cases {
				c.Body = hoistLoops(c.Body, facts, fo)
			}
		case *cil.Block:
			st.Stmts = hoistLoops(st.Stmts, facts, fo)
		}
		if pre != nil && out == nil {
			out = append(make([]cil.Stmt, 0, len(stmts)+len(pre)), stmts[:i]...)
		}
		if out != nil {
			out = append(append(out, pre...), s)
		}
	}
	if out == nil {
		return stmts
	}
	return out
}

// induction describes a recognized simple counting loop: v starts at its
// preheader value and increases by 1 per iteration while v < limit (or
// v <= limit). limit is a compile-time constant, so endpoint substitution
// cannot overflow the simulated address space.
type induction struct {
	v     *cil.Var
	limit int64
	maxTy *cil.Const // the guard's constant, reused for the endpoint's type
	le    bool       // guard is v <= limit
}

// maxVal returns the largest value v takes inside the loop.
func (ind *induction) maxVal() int64 {
	if ind.le {
		return ind.limit
	}
	return ind.limit - 1
}

// hoistScan walks the guaranteed prefix of a loop body: the statements that
// run on every iteration before anything can modify state or leave the
// loop, crossing only `if (c) break;` guards. It replays the prefix —
// guards as nested Ifs, hoistable checks as instructions — into a
// preheader, and marks the moved checks for removal from the body.
type hoistScan struct {
	facts   *factTable
	kills   loopKills
	simple  bool // single guard-break exit, no calls: widening is allowed
	indOK   map[*cil.Var]bool
	ind     *induction
	pre     []cil.Stmt
	cur     *[]cil.Stmt
	moved   map[*cil.SInstr]bool
	nHoist  int
	nWiden  int
	nGuards int
}

// hoistFromLoop returns the preheader statements for l (nil when nothing
// hoists) and deletes the moved checks from the loop body.
func hoistFromLoop(l *cil.Loop, facts *factTable, fo *FuncOpt) []cil.Stmt {
	kills, exits := summarizeLoop(l)
	hs := &hoistScan{
		facts:  facts,
		kills:  kills,
		simple: exits.breaks == 1 && exits.continues == 0 && exits.returns == 0 && !kills.call,
		indOK:  make(map[*cil.Var]bool),
		moved:  make(map[*cil.SInstr]bool),
	}
	hs.cur = &hs.pre
	if hs.simple {
		for v, n := range kills.vars {
			if n == 1 && unitIncrement(l, v) {
				hs.indOK[v] = true
			}
		}
	}
	hs.scan(l.Body.Stmts)
	if hs.nHoist == 0 && hs.nWiden == 0 {
		return nil
	}
	l.Body.Stmts = removeMoved(l.Body.Stmts, hs.moved)
	fo.Hoisted += hs.nHoist
	fo.Widened += hs.nWiden
	return hs.pre
}

// unitIncrement reports whether v's one modification in the loop (the
// caller counts them) is a top-level `v = v + 1` in the body or post block.
func unitIncrement(l *cil.Loop, v *cil.Var) bool {
	if v.AddrTaken || v.Global || !v.Type.IsInteger() {
		return false
	}
	// The one Set must be top-level (guaranteed once per iteration) and of
	// the form v = v + 1 — either directly or through the lowerer's
	// post-increment temp pair `t = v; v = t + 1`.
	topLevel := func(stmts []cil.Stmt) bool {
		for idx, s := range stmts {
			si, ok := s.(*cil.SInstr)
			if !ok {
				continue
			}
			set, ok := si.Ins.(*cil.Set)
			if !ok || set.LV.Var != v || len(set.LV.Offset) != 0 {
				continue
			}
			if isPlusOne(set.RHS, v) {
				return true
			}
			if idx > 0 {
				if psi, ok := stmts[idx-1].(*cil.SInstr); ok {
					if ps, ok := psi.Ins.(*cil.Set); ok &&
						ps.LV.Var != nil && ps.LV.Var.Temp && len(ps.LV.Offset) == 0 &&
						isVarRead(ps.RHS, v) && isPlusOne(set.RHS, ps.LV.Var) {
						return true
					}
				}
			}
			return false
		}
		return false
	}
	if l.Post != nil && topLevel(l.Post.Stmts) {
		return true
	}
	return topLevel(l.Body.Stmts)
}

func isPlusOne(e cil.Expr, v *cil.Var) bool {
	bo, ok := stripCasts(e).(*cil.BinOp)
	if !ok || bo.Op != cil.OpAdd {
		return false
	}
	a, b := stripCasts(bo.A), stripCasts(bo.B)
	if c, ok := b.(*cil.Const); ok && c.I == 1 {
		return isVarRead(a, v)
	}
	if c, ok := a.(*cil.Const); ok && c.I == 1 {
		return isVarRead(b, v)
	}
	return false
}

func stripCasts(e cil.Expr) cil.Expr {
	for {
		c, ok := e.(*cil.Cast)
		if !ok {
			return e
		}
		e = c.X
	}
}

func isVarRead(e cil.Expr, v *cil.Var) bool {
	lv, ok := e.(*cil.Lval)
	return ok && lv.LV.Var == v && len(lv.LV.Offset) == 0
}

// maxWidenLimit bounds the constant loop limit widening accepts: endpoint
// substitution multiplies the limit by the element stride at run time, and
// the product must stay far from wrapping the 32-bit simulated address
// space (wrapping could make the endpoint check pass while an intermediate
// access traps).
const maxWidenLimit = 1 << 20

// scan consumes the guaranteed prefix; it returns false when it reaches a
// statement it cannot cross.
func (hs *hoistScan) scan(stmts []cil.Stmt) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *cil.SInstr:
			chk, ok := st.Ins.(*cil.Check)
			if !ok {
				return false
			}
			d := hs.facts.deps[hs.facts.id(chk)]
			if invariantIn(d, hs.kills, nil) {
				*hs.cur = append(*hs.cur, &cil.SInstr{Ins: chk})
				hs.moved[st] = true
				hs.nHoist++
				continue
			}
			if w := hs.widen(chk, d); w != nil {
				hs.facts.add(w)
				*hs.cur = append(*hs.cur, &cil.SInstr{Ins: chk}, &cil.SInstr{Ins: w})
				hs.moved[st] = true
				hs.nWiden++
				continue
			}
			// A check we cannot move pins everything after it: moving a
			// later check above this one could reorder traps.
			return false
		case *cil.Block:
			if !hs.scan(st.Stmts) {
				return false
			}
		case *cil.If:
			// Only the guard shape `if (c) break;` can be crossed: when c
			// holds the loop exits, so the rest of the prefix runs exactly
			// when !c — replayed as a nested `if (!c)` in the preheader.
			if len(st.Then.Stmts) != 1 || (st.Else != nil && len(st.Else.Stmts) != 0) {
				return false
			}
			if _, isBreak := st.Then.Stmts[0].(*cil.Break); !isBreak {
				return false
			}
			guard := negate(st.Cond)
			nb := &cil.Block{}
			*hs.cur = append(*hs.cur, &cil.If{Cond: guard, Then: nb})
			hs.cur = &nb.Stmts
			hs.nGuards++
			hs.noteInduction(guard)
		default:
			return false
		}
	}
	return true
}

// noteInduction recognizes a `v < limit` / `v <= limit` guard over a
// unit-increment local with a small constant limit, enabling widening for
// the checks that follow it.
func (hs *hoistScan) noteInduction(guard cil.Expr) {
	if hs.ind != nil || !hs.simple || hs.nGuards != 1 {
		return // widening trusts exactly one guard: the loop's own test
	}
	bo, ok := guard.(*cil.BinOp)
	if !ok || (bo.Op != cil.OpLt && bo.Op != cil.OpLe) {
		return
	}
	lv, ok := stripCasts(bo.A).(*cil.Lval)
	if !ok || lv.LV.Var == nil || len(lv.LV.Offset) != 0 || !hs.indOK[lv.LV.Var] {
		return
	}
	limit, ok := stripCasts(bo.B).(*cil.Const)
	if !ok || limit.I < 0 || limit.I > maxWidenLimit {
		return
	}
	hs.ind = &induction{v: lv.LV.Var, limit: limit.I, maxTy: limit, le: bo.Op == cil.OpLe}
}

// widen returns the endpoint companion of an induction-affine check: the
// original check (evaluated at the loop's entry value of v, under the
// guard) plus this clone at v's final value cover every iteration, because
// the checked quantity is monotone in v. Returns nil when chk is not
// widenable.
func (hs *hoistScan) widen(chk *cil.Check, d factDeps) *cil.Check {
	ind := hs.ind
	if ind == nil || !slices.Contains(d.vars, ind.v) {
		return nil
	}
	if chk.Kind != cil.CheckSeq && chk.Kind != cil.CheckIndex {
		return nil
	}
	if !invariantIn(d, hs.kills, ind.v) {
		return nil
	}
	maxC := &cil.Const{I: ind.maxVal(), Ty: ind.maxTy.Ty}
	sub, n, monotone := substVar(chk.Ptr, ind.v, maxC)
	if n != 1 || !monotone {
		return nil
	}
	w := &cil.Check{Kind: chk.Kind, Ptr: sub, Size: chk.Size, RttiTarget: chk.RttiTarget}
	w.Pos = chk.Pos
	return w
}

// substVar clones e with reads of v replaced by rep. It returns the clone,
// the number of substitutions, and whether every substitution sits under
// operators that keep the expression monotone in v (+, -, pointer ±, unary
// minus, casts, and multiplication by a constant) — the condition for two
// endpoint checks to bound every intermediate value.
func substVar(e cil.Expr, v *cil.Var, rep cil.Expr) (cil.Expr, int, bool) {
	switch x := e.(type) {
	case *cil.Lval:
		if x.LV.Var == v && len(x.LV.Offset) == 0 {
			return rep, 1, true
		}
		// v anywhere else inside an lvalue (an index, a deref base) is not
		// a monotone position.
		found := false
		cil.WalkLvalue(x.LV, func(sub cil.Expr) {
			cil.WalkExpr(sub, func(y cil.Expr) {
				if isVarRead(y, v) {
					found = true
				}
			})
		})
		if found {
			return e, 1, false
		}
		return e, 0, true
	case *cil.BinOp:
		a, na, oka := substVar(x.A, v, rep)
		b, nb, okb := substVar(x.B, v, rep)
		n := na + nb
		if n == 0 {
			return e, 0, true
		}
		ok := oka && okb
		switch x.Op {
		case cil.OpAdd, cil.OpSub, cil.OpAddPI, cil.OpSubPI:
		case cil.OpMul:
			// Monotone only when the other operand is a constant.
			other := x.B
			if nb > 0 {
				other = x.A
			}
			if _, isConst := stripCasts(other).(*cil.Const); !isConst {
				ok = false
			}
		default:
			ok = false
		}
		return &cil.BinOp{Op: x.Op, A: a, B: b, Ty: x.Ty}, n, ok
	case *cil.UnOp:
		sub, n, ok := substVar(x.X, v, rep)
		if n == 0 {
			return e, 0, true
		}
		if x.Op != cil.OpNeg {
			ok = false
		}
		return &cil.UnOp{Op: x.Op, X: sub, Ty: x.Ty}, n, ok
	case *cil.Cast:
		sub, n, ok := substVar(x.X, v, rep)
		if n == 0 {
			return e, 0, true
		}
		c := *x
		c.X = sub
		return &c, n, ok
	case *cil.AddrOf:
		found := false
		cil.WalkLvalue(x.LV, func(sub cil.Expr) {
			cil.WalkExpr(sub, func(y cil.Expr) {
				if isVarRead(y, v) {
					found = true
				}
			})
		})
		if found {
			return e, 1, false
		}
		return e, 0, true
	default:
		return e, 0, true
	}
}

// negate returns !c, folding double negation and flipping integer
// comparisons (exact for the IR's integer conditions).
func negate(c cil.Expr) cil.Expr {
	switch x := c.(type) {
	case *cil.UnOp:
		if x.Op == cil.OpNot {
			return x.X
		}
	case *cil.BinOp:
		var flip cil.Op
		switch x.Op {
		case cil.OpLt:
			flip = cil.OpGe
		case cil.OpGe:
			flip = cil.OpLt
		case cil.OpLe:
			flip = cil.OpGt
		case cil.OpGt:
			flip = cil.OpLe
		case cil.OpEq:
			flip = cil.OpNe
		case cil.OpNe:
			flip = cil.OpEq
		default:
			return &cil.UnOp{Op: cil.OpNot, X: c, Ty: x.Ty}
		}
		return &cil.BinOp{Op: flip, A: x.A, B: x.B, Ty: x.Ty}
	}
	return &cil.UnOp{Op: cil.OpNot, X: c, Ty: c.Type()}
}

// removeMoved deletes the marked instruction statements from the tree
// under stmts and returns the filtered list (stmts itself when none of its
// own statements is deleted).
func removeMoved(stmts []cil.Stmt, del map[*cil.SInstr]bool) []cil.Stmt {
	if len(del) == 0 {
		return stmts
	}
	var out []cil.Stmt // nil until a statement of this list is deleted
	for i, s := range stmts {
		switch st := s.(type) {
		case *cil.SInstr:
			if del[st] {
				if out == nil {
					out = append(make([]cil.Stmt, 0, len(stmts)-1), stmts[:i]...)
				}
				continue
			}
		case *cil.Block:
			st.Stmts = removeMoved(st.Stmts, del)
		case *cil.If:
			st.Then.Stmts = removeMoved(st.Then.Stmts, del)
			if st.Else != nil {
				st.Else.Stmts = removeMoved(st.Else.Stmts, del)
			}
		case *cil.Loop:
			st.Body.Stmts = removeMoved(st.Body.Stmts, del)
			if st.Post != nil {
				st.Post.Stmts = removeMoved(st.Post.Stmts, del)
			}
		case *cil.Switch:
			for _, c := range st.Cases {
				c.Body = removeMoved(c.Body, del)
			}
		}
		if out != nil {
			out = append(out, s)
		}
	}
	if out == nil {
		return stmts
	}
	return out
}

// ---- available-check elimination (CFG dataflow) ----

// factSet is a set of fact IDs, one bit per fact of the function.
type factSet []uint64

func (s factSet) has(id int) bool { return s[id>>6]&(1<<(id&63)) != 0 }
func (s factSet) add(id int)      { s[id>>6] |= 1 << (id & 63) }

func (s factSet) or(o factSet) {
	for i, w := range o {
		s[i] |= w
	}
}

func (s factSet) and(o factSet) {
	for i, w := range o {
		s[i] &= w
	}
}

// andNot removes o from s; a nil o removes nothing.
func (s factSet) andNot(o factSet) {
	for i, w := range o {
		s[i] &^= w
	}
}

// factSets is a flat array of equal-sized fact sets.
type factSets struct {
	words []uint64
	nw    int
}

func (s factSets) at(i int) factSet { return factSet(s.words[i*s.nw : (i+1)*s.nw]) }

// sets returns n zeroed sets sized for the table's facts, carved from the
// table's reusable storage.
func (t *factTable) sets(n int) factSets {
	nw := (len(t.deps) + 63) / 64
	t.words = slices.Grow(t.words[:0], n*nw)[:n*nw]
	clear(t.words)
	return factSets{words: t.words, nw: nw}
}

// eliminateAvailable runs the availability dataflow over g and deletes
// every check whose fact already holds on all incoming paths.
func eliminateAvailable(g *cil.CFG, f *cil.Func, facts *factTable, fo *FuncOpt, record func(*cil.Check)) {
	if len(facts.deps) == 0 {
		return
	}
	// The kill masks come first: a write to variable v kills the facts in
	// row varRow[v], a memory write those in row 0. Row 1 is the IN set
	// being computed, and each block b has three rows from blockRow(b):
	// the facts it generates, the facts it kills, and its OUT set.
	varRow := facts.varRow
	clear(varRow)
	for _, d := range facts.deps {
		for _, v := range d.vars {
			if _, ok := varRow[v]; !ok {
				varRow[v] = 2 + len(varRow)
			}
		}
	}
	blockRow := func(b *cil.BBlock) int { return 2 + len(varRow) + 3*b.ID }
	sets := facts.sets(2 + len(varRow) + 3*len(g.Blocks))
	mem, in := sets.at(0), sets.at(1)
	for id, d := range facts.deps {
		if d.mem {
			mem.add(id)
		}
		for _, v := range d.vars {
			sets.at(varRow[v]).add(id)
		}
	}
	// killed returns the facts w kills: those reading its variable, and
	// those reading memory when it writes memory (nil for none).
	killed := func(w write) (byVar, byMem factSet) {
		if r, ok := varRow[w.v]; ok {
			byVar = sets.at(r)
		}
		if w.mem {
			byMem = mem
		}
		return byVar, byMem
	}

	// A block's transfer is a run of gens (a check) and kills (any other
	// instruction), so it folds to OUT = IN &^ kill | gen.
	rpo := g.ReversePostorder()
	for _, b := range rpo {
		r := blockRow(b)
		gen, kill := sets.at(r), sets.at(r+1)
		for _, si := range b.Instrs {
			if chk, ok := si.Ins.(*cil.Check); ok {
				gen.add(facts.id(chk))
				continue
			}
			byVar, byMem := killed(writeOf(si.Ins))
			gen.andNot(byVar)
			gen.andNot(byMem)
			kill.or(byVar)
			kill.or(byMem)
		}
	}

	done := slices.Grow(facts.done[:0], len(g.Blocks))[:len(g.Blocks)] // false = OUT not yet computed (⊤)
	clear(done)
	facts.done = done
	inOf := func(b *cil.BBlock) {
		first := true
		if b != g.Entry {
			for _, p := range b.Preds {
				if !done[p.ID] {
					continue // ⊤: drops out of the intersection
				}
				if po := sets.at(blockRow(p) + 2); first {
					copy(in, po)
					first = false
				} else {
					in.and(po)
				}
			}
		}
		if first {
			clear(in)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			inOf(b)
			r := blockRow(b)
			gen, kill, out := sets.at(r), sets.at(r+1), sets.at(r+2)
			if !done[b.ID] {
				done[b.ID] = true
				changed = true
			}
			for i, w := range in {
				if w = w&^kill[i] | gen[i]; w != out[i] {
					out[i] = w
					changed = true
				}
			}
		}
	}

	// Final pass: re-simulate each reachable block from its fixed IN set,
	// collecting the redundant checks, then filter the tree.
	var del map[*cil.SInstr]bool
	for _, b := range rpo {
		inOf(b)
		for _, si := range b.Instrs {
			if chk, ok := si.Ins.(*cil.Check); ok {
				id := facts.id(chk)
				if in.has(id) {
					if del == nil {
						del = make(map[*cil.SInstr]bool)
					}
					del[si] = true
					fo.Eliminated++
					record(chk)
				}
				in.add(id)
				continue
			}
			byVar, byMem := killed(writeOf(si.Ins))
			in.andNot(byVar)
			in.andNot(byMem)
		}
	}
	f.Body.Stmts = removeMoved(f.Body.Stmts, del)
}

// ---- SEQ coalescing ----

// seqStride returns the byte stride of one element step of a SEQ check's
// pointer (0 when unknown).
func seqStride(lay *Layout, ptr cil.Expr) int {
	t := ptr.Type()
	if t == nil || t.Elem == nil {
		return 0
	}
	return lay.Sizeof(t.Elem)
}

// splitConstOffset decomposes a checked pointer into (base, constant
// element offset): `p + 3` -> (p, 3), anything else -> (e, 0).
func splitConstOffset(e cil.Expr) (cil.Expr, int64) {
	if bo, ok := e.(*cil.BinOp); ok {
		if c, isC := stripCasts(bo.B).(*cil.Const); isC {
			switch bo.Op {
			case cil.OpAddPI:
				return bo.A, c.I
			case cil.OpSubPI:
				return bo.A, -c.I
			}
		}
	}
	return e, 0
}

// coalesceSeq merges runs of adjacent SEQ checks on the same base pointer
// with constant offsets into the first check of the run, widened to cover
// the whole range. Only immediately adjacent checks merge: any intervening
// instruction (even another check) ends the group, so no trap can move
// across an observable effect or a different check's trap site.
func coalesceSeq(b *cil.Block, lay *Layout, facts *factTable, fo *FuncOpt, record func(*cil.Check)) {
	del := make(map[*cil.SInstr]bool)
	var walk func(stmts []cil.Stmt)
	walk = func(stmts []cil.Stmt) {
		type member struct {
			si  *cil.SInstr
			chk *cil.Check
			off int64
		}
		// A group shares one base operand, check size and stride.
		type groupKey struct {
			base         int32
			size, stride int
		}
		var group []member
		var key groupKey
		flush := func() {
			if len(group) > 1 {
				first := group[0]
				minOff, maxOff := first.off, first.off
				ok := true
				for _, m := range group[1:] {
					if m.off < minOff {
						// The group head must carry the minimum offset: the
						// widened check starts at the head's pointer value,
						// so a smaller later offset would escape it (and
						// could turn a null trap into a bounds trap).
						ok = false
						break
					}
					if m.off > maxOff {
						maxOff = m.off
					}
				}
				if ok && key.stride > 0 && (maxOff-minOff)*int64(key.stride) < 1<<20 {
					first.chk.Size += int(maxOff-minOff) * key.stride
					for _, m := range group[1:] {
						del[m.si] = true
						fo.Coalesced++
						record(m.chk)
					}
				}
			}
			group = group[:0]
		}
		for _, s := range stmts {
			switch st := s.(type) {
			case *cil.SInstr:
				chk, isChk := st.Ins.(*cil.Check)
				if !isChk || chk.Kind != cil.CheckSeq {
					flush()
					continue
				}
				base, off := splitConstOffset(chk.Ptr)
				k := groupKey{facts.expr(base), chk.Size, seqStride(lay, chk.Ptr)}
				if len(group) > 0 && k != key {
					flush()
				}
				if len(group) == 0 {
					key = k
				}
				group = append(group, member{si: st, chk: chk, off: off})
			case *cil.Block:
				flush()
				walk(st.Stmts)
			case *cil.If:
				flush()
				walk(st.Then.Stmts)
				if st.Else != nil {
					walk(st.Else.Stmts)
				}
			case *cil.Loop:
				flush()
				walk(st.Body.Stmts)
				if st.Post != nil {
					walk(st.Post.Stmts)
				}
			case *cil.Switch:
				flush()
				for _, c := range st.Cases {
					walk(c.Body)
				}
			default:
				flush()
			}
		}
		flush()
	}
	walk(b.Stmts)
	b.Stmts = removeMoved(b.Stmts, del)
}
