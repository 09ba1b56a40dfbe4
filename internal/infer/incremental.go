package infer

import (
	"crypto/sha256"

	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/qual"
)

// SummarySource supplies persisted per-function constraint summaries. A
// source is scoped to one (gocured version, Go version, inference options)
// configuration — the infer package keys loads by function name, body
// fingerprint, and declaration fingerprint only, and trusts the source to
// segregate everything else. Load returns (nil, false) on any miss,
// including corrupt or undecodable chunks; Save is best-effort.
type SummarySource interface {
	Load(fn string, body, decls [sha256.Size]byte) (*FuncSummary, bool)
	Save(sum *FuncSummary, fn string, body, decls [sha256.Size]byte)
}

// IncrStats reports how an incremental inference composed its result.
type IncrStats struct {
	// Funcs is the number of functions in the unit.
	Funcs int `json:"funcs"`
	// Recured counts functions whose constraints were re-collected (the
	// expensive body walk + structural cast classification).
	Recured int `json:"recured"`
	// Loaded counts functions whose constraints were replayed from a
	// stored summary.
	Loaded int `json:"loaded"`
	// Unstorable counts re-collected functions whose summary could not be
	// recorded (an operand occurrence had no symbolic name); they recure
	// on every compile.
	Unstorable int `json:"unstorable"`
}

// InferIncremental is Infer with a summary source: functions whose stored
// summaries still match the current body/declaration fingerprints are
// replayed instead of re-collected, then the global solve/split phases run
// as usual over the composed graph. The result is bit-identical to a
// whole-program Infer — same node IDs, kinds, cast sites, and provenance.
// A nil src degrades to plain Infer with every function counted as recured.
func InferIncremental(prog *cil.Program, opts Options, diags *diag.List, src SummarySource) (*Result, IncrStats) {
	st := IncrStats{Funcs: len(prog.Funcs)}
	if src == nil {
		st.Recured = st.Funcs
		return Infer(prog, opts, diags), st
	}
	in := newInferrer(prog, opts, diags)
	in.prologue()

	fp := newFingerprinter(prog)
	decls := fp.Decls(prog)
	bodies := make(map[string][sha256.Size]byte, len(prog.Funcs))
	for _, f := range prog.Funcs {
		bodies[f.Name] = fp.Func(f)
	}
	tab := newOccTable(prog)

	for _, f := range prog.Funcs {
		casts := castsOf(f)
		if sum, ok := src.Load(f.Name, bodies[f.Name], decls); ok &&
			depsOK(sum, bodies) && in.applySummary(sum, tab, casts) {
			st.Loaded++
			continue
		}
		rec := newRecorder(tab, f, casts)
		in.rec = rec
		in.collectFunc(f)
		in.rec = nil
		st.Recured++
		if rec.bad {
			st.Unstorable++
			continue
		}
		src.Save(rec.finish(bodies), f.Name, bodies[f.Name], decls)
	}
	return in.result(), st
}

// depsOK verifies a summary's cross-function occurrence dependencies
// against the current body fingerprints.
func depsOK(sum *FuncSummary, bodies map[string][sha256.Size]byte) bool {
	for _, d := range sum.Deps {
		cur, ok := bodies[d.Fn]
		if !ok || cur != d.Body {
			return false
		}
	}
	return true
}

// applySummary replays one summary against the graph. It validates the
// whole op stream first (occurrence resolution, index bounds) without
// touching the graph, so a false return leaves the inferrer untouched and
// the caller falls back to a fresh collection.
func (in *inferrer) applySummary(sum *FuncSummary, tab *occTable, casts []*cil.Cast) bool {
	if sum.NCasts != int32(len(casts)) {
		return false
	}
	owned := make([][]*ctypes.Type, len(sum.Owners))
	for i, owner := range sum.Owners {
		ts, ok := tab.byOwner[owner]
		if !ok {
			return false
		}
		owned[i] = ts
	}
	occs := make([]*ctypes.Type, len(sum.Occs))
	for i, o := range sum.Occs {
		if o.Owner < 0 || int(o.Owner) >= len(owned) || o.Idx < 0 || int(o.Idx) >= len(owned[o.Owner]) {
			return false
		}
		occs[i] = owned[o.Owner][o.Idx]
	}
	nOccs, nStrs := int32(len(occs)), int32(len(sum.Strs))
	strOK := func(ix int32) bool { return ix >= -1 && ix < nStrs }
	argOK := func(ix int32, isReg bool, nreg int32) bool {
		if isReg {
			return ix >= 0 && ix < nreg
		}
		return ix >= 0 && ix < nOccs
	}
	var nreg, nsites int32
	for i := range sum.Ops {
		op := &sum.Ops[i]
		if !strOK(op.Rule) || !strOK(op.File) {
			return false
		}
		switch op.Code {
		case opReg, opBind:
			if !argOK(op.A, false, nreg) {
				return false
			}
			if op.Code == opBind {
				nreg++
			}
		case opUnify:
			if !argOK(op.A, false, nreg) || !argOK(op.B, false, nreg) {
				return false
			}
		case opFlow, opEdge:
			if !argOK(op.A, op.AReg, nreg) || !argOK(op.B, op.BReg, nreg) {
				return false
			}
			if op.Code == opEdge && (op.Site < -1 || op.Site >= nsites) {
				return false
			}
		case opArith, opIntCast, opRtti, opBad:
			if !argOK(op.A, op.AReg, nreg) {
				return false
			}
		case opCast:
			if !argOK(op.A, false, nreg) || !argOK(op.B, false, nreg) ||
				op.N < 0 || int(op.N) >= len(casts) || op.Class >= uint8(len(castClassNames)) {
				return false
			}
			nsites++
		default:
			return false
		}
	}
	if nsites != sum.NSites {
		return false
	}

	// Apply. Nothing below can fail; Lookup results that differ from
	// record time (impossible short of a fingerprint collision) degrade to
	// nil-safe no-ops.
	regs := make([]*qual.Node, 0, nreg)
	sites := make([]*CastSite, 0, nsites)
	pos := func(op *Op) diag.Pos {
		p := diag.Pos{Line: int(op.Line), Col: int(op.Col)}
		if op.File >= 0 {
			p.File = sum.Strs[op.File]
		}
		return p
	}
	str := func(ix int32) string {
		if ix < 0 {
			return ""
		}
		return sum.Strs[ix]
	}
	node := func(ix int32, isReg bool) *qual.Node {
		if isReg {
			return regs[ix]
		}
		return in.g.Lookup(occs[ix])
	}
	for i := range sum.Ops {
		op := &sum.Ops[i]
		switch op.Code {
		case opReg:
			in.regType(occs[op.A])
		case opBind:
			regs = append(regs, in.g.Lookup(occs[op.A]))
		case opUnify:
			a, b := in.g.Lookup(occs[op.A]), in.g.Lookup(occs[op.B])
			if a != nil && b != nil {
				in.g.UnionR(a, b, str(op.Rule), pos(op))
			}
		case opFlow:
			in.g.FlowR(node(op.A, op.AReg), node(op.B, op.BReg), str(op.Rule), pos(op))
		case opEdge:
			a, b := node(op.A, op.AReg), node(op.B, op.BReg)
			if a == nil || b == nil {
				continue
			}
			var site *CastSite
			if op.Site >= 0 {
				site = sites[op.Site]
			}
			in.edges = append(in.edges, &edge{src: a, dst: b, class: edgeClass(op.Class), site: site})
		case opArith:
			node(op.A, op.AReg).MarkArithAt(pos(op))
		case opIntCast:
			node(op.A, op.AReg).MarkIntCastAt(pos(op))
		case opRtti:
			node(op.A, op.AReg).MarkRttiAt(pos(op))
		case opBad:
			node(op.A, op.AReg).MarkBad(pos(op), str(op.Rule))
		case opCast:
			site := &CastSite{
				Pos:     pos(op),
				From:    occs[op.A],
				To:      occs[op.B],
				Class:   CastClass(op.Class),
				TileOK:  op.TileOK,
				Trusted: op.Trusted,
			}
			in.casts = append(in.casts, site)
			in.castOf[casts[op.N]] = site
			sites = append(sites, site)
		}
	}
	return true
}
