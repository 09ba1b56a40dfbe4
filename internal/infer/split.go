package infer

import (
	"gocured/internal/cil"
	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/qual"
)

// Split inference (§4.2). Values of SPLIT type use the compatible
// representation: data laid out exactly as C (type C(t)) plus a parallel
// metadata structure (type Meta(t)). Starting from user annotations, SPLIT
// flows down from a pointer to its base type and from a structure to its
// fields (a SPLIT pointer must never point to a NOSPLIT type), and casts or
// assignments between values force both sides to agree.

type snode struct {
	split   bool
	noSplit bool // pinned NOSPLIT by annotation
	parent  *snode
	rank    int
	// down lists nodes this one forces SPLIT onto (base types, fields).
	down []*snode
}

// find returns the representative without mutating the chain, so solved
// results can be queried from concurrent runs; inferSplit compresses every
// chain once the inference is done.
func (n *snode) find() *snode {
	for n.parent != n.parent.parent {
		n = n.parent
	}
	return n.parent
}

// SplitStats summarizes the split inference outcome.
type SplitStats struct {
	Ptrs      int // pointer occurrences considered
	SplitPtrs int // pointers with split (compatible) representation
	MetaPtrs  int // split pointers that need a metadata pointer (m field)
}

// PctSplit returns the percentage of pointers with split types.
func (s SplitStats) PctSplit() float64 { return pct(s.SplitPtrs, s.Ptrs) }

// PctMeta returns the percentage of split pointers needing an m field.
func (s SplitStats) PctMeta() float64 { return pct(s.MetaPtrs, s.Ptrs) }

// SplitResult carries per-occurrence split decisions.
type SplitResult struct {
	nodes map[*ctypes.Type]*snode
	g     *qual.Graph
	Stats SplitStats
	// metaMemo caches metaNonVoid per canonical pointee.
	metaMemo map[*ctypes.Type]int8
}

// IsSplit reports whether the occurrence t uses the compatible (split)
// representation.
func (r *SplitResult) IsSplit(t *ctypes.Type) bool {
	if n, ok := r.nodes[t]; ok {
		return n.find().split
	}
	return false
}

type splitInf struct {
	prog     *cil.Program
	g        *qual.Graph
	diags    *diag.List
	splitAll bool
	res      *SplitResult
	// reg applies regSplitOcc once per type occurrence reachable from
	// the declarations and the unified types.
	reg *ctypes.OnceWalker
}

// inferSplit runs split inference after kind inference. With splitAll the
// inference seeds every node SPLIT (the §5 all-split ablation).
func inferSplit(prog *cil.Program, g *qual.Graph, splitAll bool, diags *diag.List) *SplitResult {
	si := &splitInf{
		prog:     prog,
		g:        g,
		diags:    diags,
		splitAll: splitAll,
		res: &SplitResult{
			nodes:    make(map[*ctypes.Type]*snode),
			g:        g,
			metaMemo: make(map[*ctypes.Type]int8),
		},
	}
	si.reg = ctypes.NewOnceWalker(si.regSplitOcc)
	si.collect()
	si.propagate()
	si.res.computeStats(g)
	// Collapse the union-find chains: IsSplit is queried by the layout
	// oracle on the interpreter's hot path, possibly from many goroutines.
	for _, n := range si.res.nodes {
		n.parent = n.find()
	}
	return si.res
}

func (si *splitInf) node(t *ctypes.Type) *snode {
	if t == nil {
		return nil
	}
	if n, ok := si.res.nodes[t]; ok {
		return n.find()
	}
	n := &snode{}
	n.parent = n
	switch t.SplitAnnot {
	case ctypes.SAnnSplit:
		n.split = true
	case ctypes.SAnnNoSplit:
		n.noSplit = true
	}
	if si.splitAll {
		n.split = true
	}
	si.res.nodes[t] = n
	return n
}

func (si *splitInf) union(a, b *snode) {
	if a == nil || b == nil {
		return
	}
	ra, rb := a.find(), b.find()
	if ra == rb {
		return
	}
	if ra.rank < rb.rank {
		ra, rb = rb, ra
	}
	if ra.rank == rb.rank {
		ra.rank++
	}
	rb.parent = ra
	ra.split = ra.split || rb.split
	ra.noSplit = ra.noSplit || rb.noSplit
	ra.down = append(ra.down, rb.down...)
}

// regSplitOcc builds the split node and downward edges of one occurrence:
// pointer -> base, struct -> fields, array -> element.
func (si *splitInf) regSplitOcc(u *ctypes.Type) {
	n := si.node(u)
	switch u.Kind {
	case ctypes.Ptr, ctypes.Array:
		n.down = append(n.down, si.node(u.Elem))
	case ctypes.Struct:
		if u.SU.Complete {
			for _, f := range u.SU.Fields {
				n.down = append(n.down, si.node(f.Type))
			}
		}
	}
}

func (si *splitInf) collect() {
	for _, g := range si.prog.Globals {
		si.reg.Walk(g.Var.Type)
		si.reg.Walk(g.Var.AddrType)
	}
	for _, v := range si.prog.Externs {
		si.reg.Walk(v.Type)
	}
	for _, f := range si.prog.Funcs {
		si.reg.Walk(f.Type)
		for _, p := range f.Params {
			si.reg.Walk(p.Type)
			si.reg.Walk(p.AddrType)
		}
		for _, l := range f.Locals {
			si.reg.Walk(l.Type)
			si.reg.Walk(l.AddrType)
		}
		si.collectFunc(f)
	}
}

// collectFunc unifies split-ness across assignments and casts: converting
// between representations mid-flow is unsound, so both sides agree.
func (si *splitInf) collectFunc(f *cil.Func) {
	unifyTypes := func(a, b *ctypes.Type) {
		if a == nil || b == nil {
			return
		}
		si.reg.Walk(a)
		si.reg.Walk(b)
		si.union(si.node(a), si.node(b))
		if a.IsPointer() && b.IsPointer() {
			si.union(si.node(a.Elem), si.node(b.Elem))
		}
	}
	cil.WalkFuncExprs(f, func(e cil.Expr) {
		if c, ok := e.(*cil.Cast); ok {
			if c.To.IsPointer() && c.X.Type().IsPointer() {
				unifyTypes(c.To, c.X.Type())
			}
		}
	})
	cil.WalkInstrs(f.Body.Stmts, func(i cil.Instr) {
		switch in := i.(type) {
		case *cil.Set:
			unifyTypes(in.RHS.Type(), in.LV.Ty)
		case *cil.Call:
			ft := in.Fn.Type()
			if ft.IsPointer() {
				ft = ft.Elem
			}
			if ft.Kind != ctypes.Func {
				return
			}
			for idx, a := range in.Args {
				if idx < len(ft.Fn.Params) {
					unifyTypes(a.Type(), ft.Fn.Params[idx])
				}
			}
			if in.Result != nil {
				unifyTypes(ft.Fn.Ret, in.Result.Ty)
			}
		}
	})
}

// propagate pushes SPLIT down through base types and fields to a fixpoint.
func (si *splitInf) propagate() {
	changed := true
	for changed {
		changed = false
		for _, n := range si.res.nodes {
			r := n.find()
			if !r.split {
				continue
			}
			for _, d := range r.down {
				rd := d.find()
				if !rd.split {
					rd.split = true
					changed = true
				}
			}
		}
	}
	// Conflicts: pinned NOSPLIT or WILD occurrences cannot be split.
	for t, n := range si.res.nodes {
		r := n.find()
		if !r.split {
			continue
		}
		if r.noSplit {
			si.diags.Warnf(diag.Pos{}, "type %s is both __SPLIT (inferred) and __NOSPLIT (annotated); keeping SPLIT", t)
		}
		if t.Kind == ctypes.Ptr && si.g.KindOf(t) == qual.Wild {
			si.diags.Warnf(diag.Pos{}, "WILD pointer %s cannot use the compatible representation; ignoring SPLIT", t)
			r.split = false
		}
	}
}

// MetaNonVoid reports whether Meta(t) != void under the solved kinds: SEQ
// and RTTI pointers carry their own metadata; SAFE pointers need an m field
// exactly when their base type has metadata; aggregates aggregate.
func (r *SplitResult) MetaNonVoid(t *ctypes.Type) bool {
	return r.metaNonVoid(t, make(map[*ctypes.StructInfo]bool))
}

func (r *SplitResult) metaNonVoid(t *ctypes.Type, inProgress map[*ctypes.StructInfo]bool) bool {
	if t == nil {
		return false
	}
	if v, ok := r.metaMemo[t]; ok {
		return v == 1
	}
	res := false
	switch t.Kind {
	case ctypes.Ptr:
		switch r.g.KindOf(t) {
		case qual.Seq, qual.Rtti, qual.Wild:
			res = true
		default:
			res = r.metaNonVoid(t.Elem, inProgress)
		}
	case ctypes.Array:
		res = r.metaNonVoid(t.Elem, inProgress)
	case ctypes.Struct:
		if t.SU.Complete && !inProgress[t.SU] {
			inProgress[t.SU] = true
			for _, f := range t.SU.Fields {
				if r.metaNonVoid(f.Type, inProgress) {
					res = true
					break
				}
			}
			delete(inProgress, t.SU)
		}
	}
	if res {
		r.metaMemo[t] = 1
	} else {
		r.metaMemo[t] = 0
	}
	return res
}

func (r *SplitResult) computeStats(g *qual.Graph) {
	for t, n := range r.nodes {
		if t.Kind != ctypes.Ptr {
			continue
		}
		r.Stats.Ptrs++
		if n.find().split {
			r.Stats.SplitPtrs++
			if r.MetaNonVoid(t.Elem) {
				r.Stats.MetaPtrs++
			}
		}
	}
}
