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

// snode is one occurrence's split node. Nodes live in one flat slice,
// linked by index, in creation order.
type snode struct {
	ty *ctypes.Type
	// down lists nodes this one forces SPLIT onto (base types, fields).
	down    []int32
	parent  int32
	rank    uint8
	split   bool
	noSplit bool // pinned NOSPLIT by annotation
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
	nodes []snode
	// byOcc holds 1 + each occurrence's node index, by occurrence ID.
	byOcc ctypes.Dense[int32]
	g     *qual.Graph
	Stats SplitStats
	// metaMemo caches metaNonVoid by occurrence ID: 0 not yet computed,
	// 1 void, 2 non-void. inProgress marks, by struct index, the structs
	// the current metaNonVoid descent is inside.
	metaMemo   ctypes.Dense[uint8]
	inProgress ctypes.Dense[bool]
}

// find returns the index of i's representative without mutating the
// chain, so solved results can be queried from concurrent runs;
// inferSplit compresses every chain once the inference is done.
func (r *SplitResult) find(i int32) int32 {
	for r.nodes[i].parent != i {
		i = r.nodes[i].parent
	}
	return i
}

// IsSplit reports whether the occurrence t uses the compatible (split)
// representation.
func (r *SplitResult) IsSplit(t *ctypes.Type) bool {
	if i := r.byOcc.At(t.ID()); i != 0 {
		return r.nodes[r.find(i-1)].split
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
	// Kind inference has numbered most occurrences this walk meets (a
	// corpus program meets at most 17% more), so the tables start at about
	// their final size.
	n := int(prog.IDs) * 5 / 4
	si := &splitInf{
		prog:     prog,
		g:        g,
		diags:    diags,
		splitAll: splitAll,
		res:      &SplitResult{g: g, nodes: make([]snode, 0, n), byOcc: make(ctypes.Dense[int32], n+1)},
	}
	si.reg = ctypes.NewOnceWalker(&prog.IDs, si.regSplitOcc)
	si.collect()
	si.propagate()
	si.res.computeStats(g)
	// Collapse the union-find chains: IsSplit is queried by the layout
	// oracle on the interpreter's hot path, possibly from many goroutines.
	r := si.res
	for i := range r.nodes {
		r.nodes[i].parent = r.find(int32(i))
	}
	return r
}

// node returns the index of the representative of t's split node,
// creating the node on first use.
func (si *splitInf) node(t *ctypes.Type) int32 {
	r := si.res
	id := si.prog.IDs.Of(t)
	if i := r.byOcc.At(id); i != 0 {
		return r.find(i - 1)
	}
	i := int32(len(r.nodes))
	r.nodes = append(r.nodes, snode{ty: t, parent: i, split: si.splitAll || t.SplitAnnot == ctypes.SAnnSplit,
		noSplit: t.SplitAnnot == ctypes.SAnnNoSplit})
	r.byOcc.Put(id, i+1)
	return i
}

func (si *splitInf) union(a, b int32) {
	ns := si.res.nodes
	ra, rb := si.res.find(a), si.res.find(b)
	if ra == rb {
		return
	}
	if ns[ra].rank < ns[rb].rank {
		ra, rb = rb, ra
	}
	if ns[ra].rank == ns[rb].rank {
		ns[ra].rank++
	}
	ns[rb].parent = ra
	ns[ra].split = ns[ra].split || ns[rb].split
	ns[ra].noSplit = ns[ra].noSplit || ns[rb].noSplit
	ns[ra].down = append(ns[ra].down, ns[rb].down...)
}

// regSplitOcc builds the split node and downward edges of one occurrence:
// pointer -> base, struct -> fields, array -> element. Creating a node may
// grow the slice, so each edge is appended through a fresh index.
func (si *splitInf) regSplitOcc(u *ctypes.Type) {
	n := si.node(u)
	switch u.Kind {
	case ctypes.Ptr, ctypes.Array:
		d := si.node(u.Elem)
		si.res.nodes[n].down = append(si.res.nodes[n].down, d)
	case ctypes.Struct:
		if u.SU.Complete {
			for _, f := range u.SU.Fields {
				d := si.node(f.Type)
				si.res.nodes[n].down = append(si.res.nodes[n].down, d)
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
// Both loops run over the nodes in creation order, so the conflict
// warnings come out in the same order on every compile.
func (si *splitInf) propagate() {
	r := si.res
	changed := true
	for changed {
		changed = false
		for i := range r.nodes {
			n := &r.nodes[r.find(int32(i))]
			if !n.split {
				continue
			}
			for _, d := range n.down {
				if rd := &r.nodes[r.find(d)]; !rd.split {
					rd.split = true
					changed = true
				}
			}
		}
	}
	// Conflicts: pinned NOSPLIT or WILD occurrences cannot be split.
	for i := range r.nodes {
		t, n := r.nodes[i].ty, &r.nodes[r.find(int32(i))]
		if !n.split {
			continue
		}
		if n.noSplit {
			si.diags.Warnf(diag.Pos{}, "type %s is both __SPLIT (inferred) and __NOSPLIT (annotated); keeping SPLIT", t)
		}
		if t.Kind == ctypes.Ptr && si.g.KindOf(t) == qual.Wild {
			si.diags.Warnf(diag.Pos{}, "WILD pointer %s cannot use the compatible representation; ignoring SPLIT", t)
			n.split = false
		}
	}
}

// metaNonVoid reports whether Meta(t) != void under the solved kinds: SEQ
// and RTTI pointers carry their own metadata; SAFE pointers need an m field
// exactly when their base type has metadata; aggregates aggregate. It
// memoizes into the result, so only the inference calls it.
func (r *SplitResult) metaNonVoid(t *ctypes.Type) bool {
	if t == nil {
		return false
	}
	id := t.ID()
	if v := r.metaMemo.At(id); v != 0 {
		return v == 2
	}
	res := false
	switch t.Kind {
	case ctypes.Ptr:
		switch r.g.KindOf(t) {
		case qual.Seq, qual.Rtti, qual.Wild:
			res = true
		default:
			res = r.metaNonVoid(t.Elem)
		}
	case ctypes.Array:
		res = r.metaNonVoid(t.Elem)
	case ctypes.Struct:
		if t.SU.Complete && !r.inProgress.At(t.SU.Index) {
			r.inProgress.Put(t.SU.Index, true)
			for _, f := range t.SU.Fields {
				if r.metaNonVoid(f.Type) {
					res = true
					break
				}
			}
			r.inProgress[t.SU.Index] = false
		}
	}
	if v := uint8(1); id != 0 {
		if res {
			v = 2
		}
		r.metaMemo.Put(id, v)
	}
	return res
}

func (r *SplitResult) computeStats(g *qual.Graph) {
	for i := range r.nodes {
		t := r.nodes[i].ty
		if t.Kind != ctypes.Ptr {
			continue
		}
		r.Stats.Ptrs++
		if r.nodes[r.find(int32(i))].split {
			r.Stats.SplitPtrs++
			if r.metaNonVoid(t.Elem) {
				r.Stats.MetaPtrs++
			}
		}
	}
}
