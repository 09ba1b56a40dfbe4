package qual

import (
	"testing"
	"testing/quick"

	"gocured/internal/ctypes"
)

func TestNodeForCreatesOncePerOccurrence(t *testing.T) {
	g := NewGraph()
	p1 := ctypes.PointerTo(ctypes.IntT())
	p2 := ctypes.PointerTo(ctypes.IntT())
	n1 := g.NodeFor(p1)
	n1b := g.NodeFor(p1)
	n2 := g.NodeFor(p2)
	if n1 != n1b {
		t.Error("same occurrence must map to one node")
	}
	if n1 == n2 {
		t.Error("distinct occurrences must get distinct nodes")
	}
	if g.OccNode(p1).ID == g.OccNode(p2).ID {
		t.Error("occurrences must record distinct node ids")
	}
	if got := g.Prov.Text(n2.ID); got != "int*" {
		t.Errorf("blame text of n%d = %q, want its type int*", n2.ID, got)
	}
	if g.NodeFor(ctypes.IntT()) != nil {
		t.Error("non-pointer types have no nodes")
	}
}

func TestUnionMergesFacts(t *testing.T) {
	g := NewGraph()
	a := g.NodeFor(ctypes.PointerTo(ctypes.IntT()))
	b := g.NodeFor(ctypes.PointerTo(ctypes.IntT()))
	a.MarkArith()
	b.MarkIntCast()
	g.Union(a, b)
	r := a.Find()
	if r != b.Find() {
		t.Fatal("union did not merge classes")
	}
	if !r.Arith || !r.IntCast {
		t.Error("facts must merge into the representative")
	}
}

func TestAnnotationsSeedForced(t *testing.T) {
	g := NewGraph()
	ty := ctypes.PointerTo(ctypes.IntT())
	ty.Ann = ctypes.AnnWild
	n := g.NodeFor(ty)
	if n.Forced != Wild {
		t.Errorf("forced = %v, want Wild", n.Forced)
	}
}

func TestFlowEdges(t *testing.T) {
	g := NewGraph()
	a := g.NodeFor(ctypes.PointerTo(ctypes.IntT()))
	b := g.NodeFor(ctypes.PointerTo(ctypes.IntT()))
	g.Flow(a, b)
	if len(a.FlowsOut()) != 1 || a.FlowsOut()[0].Find() != b.Find() {
		t.Error("flow edge missing from source")
	}
	if len(b.FlowsIn()) != 1 {
		t.Error("flow edge missing from destination")
	}
}

func TestRepsAfterUnions(t *testing.T) {
	g := NewGraph()
	var nodes []*Node
	for i := 0; i < 6; i++ {
		nodes = append(nodes, g.NodeFor(ctypes.PointerTo(ctypes.IntT())))
	}
	g.Union(nodes[0], nodes[1])
	g.Union(nodes[2], nodes[3])
	g.Union(nodes[0], nodes[2])
	reps := g.Reps()
	if len(reps) != 3 { // {0,1,2,3}, {4}, {5}
		t.Errorf("reps = %d, want 3", len(reps))
	}
}

// Property: union-find is idempotent and Find is stable under repeated
// unions in arbitrary order.
func TestUnionFindProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		g := NewGraph()
		const n = 12
		var nodes []*Node
		for i := 0; i < n; i++ {
			nodes = append(nodes, g.NodeFor(ctypes.PointerTo(ctypes.IntT())))
		}
		for _, p := range pairs {
			a, b := int(p)%n, int(p/16)%n
			g.Union(nodes[a], nodes[b])
		}
		// Find must be consistent: transitively-united nodes share a rep.
		for _, p := range pairs {
			a, b := int(p)%n, int(p/16)%n
			if nodes[a].Find() != nodes[b].Find() {
				return false
			}
		}
		// Reps count + sizes of classes must total n.
		seen := map[*Node]bool{}
		for _, nd := range nodes {
			seen[nd.Find()] = true
		}
		return len(seen) == len(g.Reps())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKindOfDefaultsSafe(t *testing.T) {
	g := NewGraph()
	ty := ctypes.PointerTo(ctypes.IntT())
	if g.KindOf(ty) != Safe {
		t.Error("unregistered occurrence defaults to SAFE")
	}
	n := g.NodeFor(ty)
	if g.KindOf(ty) != Safe {
		t.Error("unsolved node reads as SAFE")
	}
	n.Kind = Seq
	if g.KindOf(ty) != Seq {
		t.Error("solved kind must be visible")
	}
}
