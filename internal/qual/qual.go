// Package qual defines pointer-kind qualifiers and the constraint graph used
// by the CCured inference. Each syntactic pointer (or array) type occurrence
// gets a Node; the address of each variable and structure field gets one as
// well. Inference merges nodes that must share a kind (union-find), connects
// data flow with directed edges, and records per-node facts (arithmetic,
// bad casts, annotations) that the solver turns into kinds.
package qual

import (
	"fmt"

	"gocured/internal/ctypes"
	"gocured/internal/diag"
	"gocured/internal/trace"
)

// Kind is a CCured pointer kind.
type Kind int

// Pointer kinds, ordered so that the solver can only escalate:
// Unknown < Safe < Rtti < Seq < Wild.
const (
	Unknown Kind = iota
	Safe
	Rtti
	Seq
	Wild
)

var kindNames = [...]string{"UNKNOWN", "SAFE", "RTTI", "SEQ", "WILD"}

func (k Kind) String() string { return kindNames[k] }

// Node is one equivalence class representative in the qualifier graph.
type Node struct {
	ID int
	// Ty is the pointer/array occurrence this node was created for (the
	// first one, if several were unified).
	Ty *ctypes.Type

	// Facts accumulated during constraint generation.
	Arith    bool // pointer arithmetic is performed on this pointer
	BadCast  bool // involved in a cast CCured cannot verify
	IntCast  bool // a non-zero integer is cast to this pointer
	RttiNeed bool // a checked downcast reads run-time type info from it
	Forced   Kind // user annotation (Unknown if none)

	// Kind is the solved pointer kind (valid after Solve).
	Kind Kind

	// WhyPos/Why record the first reason a node went WILD, for diagnostics
	// ("a security review should start at these casts").
	Why    string
	WhyPos diag.Pos

	parent *Node // union-find
	rank   int
	g      *Graph // owning graph (provenance recording)

	// flowOut lists nodes this one flows into (assignment/cast data flow,
	// source -> destination).
	flowOut []*Node
	// flowIn lists nodes flowing into this one.
	flowIn []*Node
	// base lists the pointer nodes contained in the representation of the
	// pointee type (for WILD spreading into base types).
	base []*Node
}

// Graph is the whole-program qualifier graph.
type Graph struct {
	Nodes  []*Node
	byType map[*ctypes.Type]*Node
	// Prov records every constraint edge and kind-forcing fact with its
	// rule name and source location, so solved kinds can be explained by a
	// blame chain (trace.Prov.Explain).
	Prov *trace.Prov
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	g := &Graph{byType: make(map[*ctypes.Type]*Node), Prov: trace.NewProv()}
	// A node's description is its occurrence's type, rendered only when a
	// blame chain is.
	g.Prov.Text = func(id int) string { return g.Nodes[id-1].Ty.String() }
	return g
}

// NodeFor returns the node for a pointer/array type occurrence, creating it
// on first use.
func (g *Graph) NodeFor(t *ctypes.Type) *Node {
	if t == nil || (t.Kind != ctypes.Ptr && t.Kind != ctypes.Array) {
		return nil
	}
	if n, ok := g.byType[t]; ok {
		return n.Find()
	}
	n := &Node{ID: len(g.Nodes) + 1, Ty: t, g: g}
	switch t.Ann {
	case ctypes.AnnSafe:
		n.Forced = Safe
	case ctypes.AnnSeq:
		n.Forced = Seq
	case ctypes.AnnWild:
		n.Forced = Wild
	case ctypes.AnnRtti:
		n.Forced = Rtti
	}
	n.parent = n
	g.Nodes = append(g.Nodes, n)
	g.byType[t] = n
	if n.Forced != Unknown {
		g.Prov.AddSeed(n.ID, "forced-"+n.Forced.String(), diag.Pos{}, "user annotation")
	}
	return n
}

// OccNode returns the node created for the occurrence t itself (not its
// class representative), or nil. Blame chains start at occurrence nodes so
// the explanation names the exact type the user wrote.
func (g *Graph) OccNode(t *ctypes.Type) *Node {
	return g.byType[t]
}

// Lookup returns the representative node for an occurrence, or nil.
func (g *Graph) Lookup(t *ctypes.Type) *Node {
	if n, ok := g.byType[t]; ok {
		return n.Find()
	}
	return nil
}

// Find returns the representative of n's equivalence class. It never
// mutates the chain: queries stay race-free when a solved graph is read
// from several goroutines at once (concurrent Run of a compiled program).
// Compress collapses every chain after solving, so post-solve lookups are
// one hop; during inference chains stay short via union by rank.
func (n *Node) Find() *Node {
	for n.parent != n.parent.parent {
		n = n.parent
	}
	return n.parent
}

// Compress points every node directly at its representative. The solver
// calls it once after the kinds are final so that later concurrent Find
// calls are single-hop reads.
func (g *Graph) Compress() {
	for _, n := range g.Nodes {
		n.parent = n.Find()
	}
}

// Union merges the classes of a and b (they must have the same kind).
func (g *Graph) Union(a, b *Node) *Node {
	return g.UnionR(a, b, "unify", diag.Pos{})
}

// UnionR is Union with provenance: rule names the inference rule that
// demanded the unification and pos its source location.
func (g *Graph) UnionR(a, b *Node, rule string, pos diag.Pos) *Node {
	ra, rb := a.Find(), b.Find()
	if ra == rb {
		return ra
	}
	g.Prov.AddEdge(a.ID, b.ID, trace.CatUnify, rule, pos)
	if ra.rank < rb.rank {
		ra, rb = rb, ra
	}
	if ra.rank == rb.rank {
		ra.rank++
	}
	rb.parent = ra
	// Merge facts into the representative.
	ra.Arith = ra.Arith || rb.Arith
	ra.IntCast = ra.IntCast || rb.IntCast
	ra.RttiNeed = ra.RttiNeed || rb.RttiNeed
	if rb.BadCast && !ra.BadCast {
		ra.BadCast = true
		ra.Why, ra.WhyPos = rb.Why, rb.WhyPos
	}
	if ra.Forced == Unknown {
		ra.Forced = rb.Forced
	}
	ra.flowOut = append(ra.flowOut, rb.flowOut...)
	ra.flowIn = append(ra.flowIn, rb.flowIn...)
	ra.base = append(ra.base, rb.base...)
	return ra
}

// Flow records data flow from src to dst (assignment dst = src).
func (g *Graph) Flow(src, dst *Node) {
	g.FlowR(src, dst, "flow", diag.Pos{})
}

// FlowR is Flow with provenance: rule names the inference rule behind the
// edge ("assign", "upcast", "call-arg", ...) and pos its source location.
func (g *Graph) FlowR(src, dst *Node, rule string, pos diag.Pos) {
	if src == nil || dst == nil {
		return
	}
	rs, rd := src.Find(), dst.Find()
	if rs == rd {
		return
	}
	g.Prov.AddEdge(src.ID, dst.ID, trace.CatFlow, rule, pos)
	rs.flowOut = append(rs.flowOut, rd)
	rd.flowIn = append(rd.flowIn, rs)
}

// AddBase records that base is a pointer contained in the representation of
// n's pointee (WILD spreads from n to base).
func (g *Graph) AddBase(n, base *Node) {
	if n == nil || base == nil {
		return
	}
	g.Prov.AddEdge(n.ID, base.ID, trace.CatBase, "contains", diag.Pos{})
	rn := n.Find()
	rn.base = append(rn.base, base)
}

// seed records a kind-forcing fact on the occurrence node itself (not the
// representative), so blame chains end at the exact site that forced it.
func (n *Node) seed(fact string, pos diag.Pos, why string) {
	if n.g != nil {
		n.g.Prov.AddSeed(n.ID, fact, pos, why)
	}
}

// MarkArith records pointer arithmetic on n.
func (n *Node) MarkArith() { n.MarkArithAt(diag.Pos{}) }

// MarkArithAt is MarkArith with the arithmetic's source location.
func (n *Node) MarkArithAt(pos diag.Pos) {
	if n != nil {
		n.seed("arith", pos, "pointer arithmetic")
		n.Find().Arith = true
	}
}

// MarkBad records a bad cast with provenance.
func (n *Node) MarkBad(pos diag.Pos, why string) {
	if n == nil {
		return
	}
	n.seed("bad-cast", pos, why)
	r := n.Find()
	if !r.BadCast {
		r.BadCast = true
		r.Why = why
		r.WhyPos = pos
	}
}

// MarkIntCast records a non-zero integer flowing into the pointer.
func (n *Node) MarkIntCast() { n.MarkIntCastAt(diag.Pos{}) }

// MarkIntCastAt is MarkIntCast with the cast's source location.
func (n *Node) MarkIntCastAt(pos diag.Pos) {
	if n != nil {
		n.seed("int-cast", pos, "non-zero integer cast to pointer")
		n.Find().IntCast = true
	}
}

// MarkRttiAt records that a checked downcast at pos needs RTTI from this
// pointer.
func (n *Node) MarkRttiAt(pos diag.Pos) {
	if n != nil {
		n.seed("rtti-need", pos, "source of a checked downcast")
		n.Find().RttiNeed = true
	}
}

// Reps returns the unique class representatives, in the order of each
// class's first node.
func (g *Graph) Reps() []*Node {
	seen := make([]bool, len(g.Nodes)+1) // by node ID
	var out []*Node
	for _, n := range g.Nodes {
		r := n.Find()
		if !seen[r.ID] {
			seen[r.ID] = true
			out = append(out, r)
		}
	}
	return out
}

// KindOf returns the solved kind for the class of t's node; pointers that
// never entered the graph (unreached occurrences) default to Safe.
func (g *Graph) KindOf(t *ctypes.Type) Kind {
	if n := g.Lookup(t); n != nil {
		if n.Kind == Unknown {
			return Safe
		}
		return n.Kind
	}
	return Safe
}

// FlowsOut exposes n's outgoing flow edges (representatives).
func (n *Node) FlowsOut() []*Node { return n.Find().flowOut }

// FlowsIn exposes n's incoming flow edges (representatives).
func (n *Node) FlowsIn() []*Node { return n.Find().flowIn }

// BaseNodes exposes the pointee-contained pointer nodes.
func (n *Node) BaseNodes() []*Node { return n.Find().base }

func (n *Node) String() string {
	return fmt.Sprintf("n%d(%s:%s)", n.ID, n.Ty, n.Kind)
}
