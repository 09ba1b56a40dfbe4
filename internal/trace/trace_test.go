package trace

import (
	"strings"
	"testing"
	"time"

	"gocured/internal/diag"
)

func pos(line, col int) diag.Pos {
	return diag.Pos{File: "t.c", Line: line, Col: col}
}

// graph builds: 1 --assign flow--> 2 == 3 (unify), with a bad-cast seed on
// node 3 and an arith seed on node 1.
func testProv() *Prov {
	p := NewProv()
	p.Text = func(n int) string { return [...]string{"?", "int*", "int*", "char*"}[n] }
	p.AddEdge(1, 2, CatFlow, "assign", pos(4, 2))
	p.AddEdge(2, 3, CatUnify, "cast-identity", pos(9, 5))
	p.AddSeed(3, "bad-cast", pos(9, 10), "char* incompatible with int*")
	p.AddSeed(1, "arith", pos(6, 3), "pointer arithmetic")
	return p
}

func chainNodes(c *Chain) []int {
	nodes := []int{c.Target}
	cur := c.Target
	for _, s := range c.Steps {
		if s.Reversed {
			cur = s.Edge.From
		} else {
			cur = s.Edge.To
		}
		nodes = append(nodes, cur)
	}
	return nodes
}

func TestExplainWildWalksForwardFlow(t *testing.T) {
	p := testProv()
	c := p.Explain(1, GoalWild)
	if c == nil {
		t.Fatal("no chain found")
	}
	if got := chainNodes(c); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("chain nodes = %v, want [1 2 3]", got)
	}
	if c.Seed == nil || c.Seed.Fact != "bad-cast" || c.Seed.Node != 3 {
		t.Errorf("seed = %+v, want bad-cast on n3", c.Seed)
	}
}

func TestExplainWildWalksBackwardFlow(t *testing.T) {
	// WILD spreads against data flow too: node 3's chain must cross the
	// assign edge in reverse to reach... nothing here, so build the inverse:
	// seed upstream, target downstream.
	p := NewProv()
	p.AddEdge(1, 2, CatFlow, "assign", pos(4, 2))
	p.AddSeed(1, "bad-cast", pos(2, 1), "")
	c := p.Explain(2, GoalWild)
	if c == nil {
		t.Fatal("no WILD chain against the flow direction")
	}
	if len(c.Steps) != 1 || !c.Steps[0].Reversed {
		t.Errorf("steps = %+v, want one reversed flow edge", c.Steps)
	}
}

func TestExplainSeqIgnoresBackwardFlowAndWildSeeds(t *testing.T) {
	p := NewProv()
	p.AddEdge(1, 2, CatFlow, "assign", pos(4, 2))
	p.AddSeed(1, "bad-cast", pos(2, 1), "")
	// SEQ only travels with the flow (1 -> 2), and bad-cast does not seed
	// SEQ, so node 2 has no SEQ explanation.
	if c := p.Explain(2, GoalSeq); c != nil {
		t.Errorf("SEQ chain crossed a backward flow edge to a WILD seed: %+v", c)
	}
	// With an arith seed downstream it resolves.
	p2 := NewProv()
	p2.AddEdge(1, 2, CatFlow, "assign", pos(4, 2))
	p2.AddSeed(2, "arith", pos(6, 3), "")
	c := p2.Explain(1, GoalSeq)
	if c == nil || c.Seed.Fact != "arith" {
		t.Fatalf("SEQ chain = %+v, want arith seed via forward flow", c)
	}
}

func TestExplainBaseEdgeOnlyExplainsWild(t *testing.T) {
	// Base edge: container 1 contains pointer 2. 2's wildness comes from 1.
	p := NewProv()
	p.AddEdge(1, 2, CatBase, "contains", diag.Pos{})
	p.AddSeed(1, "bad-cast", pos(2, 1), "")
	if c := p.Explain(2, GoalWild); c == nil {
		t.Error("WILD must propagate down a base edge (container to member)")
	}
	if c := p.Explain(2, GoalSeq); c != nil {
		t.Errorf("SEQ crossed a base edge: %+v", c)
	}
	// The container is never explained by its member.
	p2 := NewProv()
	p2.AddEdge(1, 2, CatBase, "contains", diag.Pos{})
	p2.AddSeed(2, "bad-cast", pos(2, 1), "")
	if c := p2.Explain(1, GoalWild); c != nil {
		t.Errorf("member wildness leaked up to the container: %+v", c)
	}
}

func TestExplainUnifyBothWays(t *testing.T) {
	for _, tc := range []struct{ target, seed int }{{1, 2}, {2, 1}} {
		p := NewProv()
		p.AddEdge(1, 2, CatUnify, "decay", diag.Pos{})
		p.AddSeed(tc.seed, "rtti-need", pos(3, 3), "")
		if c := p.Explain(tc.target, GoalRtti); c == nil {
			t.Errorf("unify edge not crossed from %d to seed on %d", tc.target, tc.seed)
		}
	}
}

func TestExplainShortestPathWins(t *testing.T) {
	// Two routes from 1 to a seed: direct unify to 4 (seeded), and a
	// two-hop detour 1->2->4. BFS must pick the single-step route.
	p := NewProv()
	p.AddEdge(1, 2, CatFlow, "assign", diag.Pos{})
	p.AddEdge(2, 4, CatFlow, "assign", diag.Pos{})
	p.AddEdge(1, 4, CatUnify, "decay", diag.Pos{})
	p.AddSeed(4, "bad-cast", pos(1, 1), "")
	c := p.Explain(1, GoalWild)
	if c == nil || len(c.Steps) != 1 {
		t.Fatalf("chain = %+v, want the one-step unify route", c)
	}
}

func TestExplainSeedOnTarget(t *testing.T) {
	p := testProv()
	c := p.Explain(3, GoalWild)
	if c == nil || len(c.Steps) != 0 || c.Seed == nil || c.Seed.Node != 3 {
		t.Fatalf("chain = %+v, want zero-step chain seeded at the target", c)
	}
}

func TestExplainNilAndMissing(t *testing.T) {
	var p *Prov
	if c := p.Explain(1, GoalWild); c != nil {
		t.Error("nil Prov must explain nothing")
	}
	p2 := NewProv()
	if c := p2.Explain(7, GoalWild); c != nil {
		t.Error("unknown node must explain nothing")
	}
	if c := testProv().Explain(0, GoalWild); c != nil {
		t.Error("node 0 is the nil sentinel, must explain nothing")
	}
}

func TestRenderFormat(t *testing.T) {
	p := testProv()
	got := p.Explain(1, GoalWild).Render()
	want := "n1 (int*) is WILD:\n" +
		"  n1 -> n2 (int*) [flow: assign] at t.c:4:2\n" +
		"  n2 == n3 (char*) [unify: cast-identity] at t.c:9:5\n" +
		"  n3: bad-cast at t.c:9:10 (char* incompatible with int*)\n"
	if got != want {
		t.Errorf("Render:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderReversedFlowArrow(t *testing.T) {
	p := NewProv()
	p.AddEdge(1, 2, CatFlow, "assign", pos(4, 2))
	p.AddSeed(1, "bad-cast", pos(2, 1), "")
	got := p.Explain(2, GoalWild).Render()
	if !strings.Contains(got, "n2 <- n1") {
		t.Errorf("reversed flow must render a <- arrow:\n%s", got)
	}
}

func TestLines(t *testing.T) {
	p := testProv()
	lines := p.Explain(1, GoalWild).Lines()
	if len(lines) != 4 {
		t.Fatalf("Lines = %d entries, want 4: %q", len(lines), lines)
	}
	for _, l := range lines {
		if strings.HasSuffix(l, "\n") {
			t.Errorf("line retains newline: %q", l)
		}
	}
	var nilChain *Chain
	if nilChain.Lines() != nil || nilChain.Render() != "" {
		t.Error("nil chain must render empty")
	}
}

func TestSpanSet(t *testing.T) {
	var ss SpanSet
	ss.Do("parse", func() {})
	ss.Add("sema", 1500*time.Microsecond)
	if len(ss.Spans) != 2 || ss.Spans[0].Name != "parse" || ss.Spans[1].DurMS != 1.5 {
		t.Errorf("spans = %+v", ss.Spans)
	}
	var nilSet *SpanSet
	ran := false
	nilSet.Do("x", func() { ran = true }) // must still run the body
	nilSet.Add("y", time.Millisecond)
	if !ran {
		t.Error("nil SpanSet.Do skipped the body")
	}
}

func TestSpanNesting(t *testing.T) {
	var ss SpanSet
	outer := ss.Begin("outer")
	inner := ss.Begin("inner")
	if ss.Open() != 2 {
		t.Fatalf("open = %d, want 2", ss.Open())
	}
	ss.End(inner)
	ss.End(outer)
	if ss.Open() != 0 {
		t.Fatalf("open = %d after ending all, want 0", ss.Open())
	}
	if ss.Spans[0].Depth != 0 || ss.Spans[1].Depth != 1 {
		t.Errorf("depths = %d,%d, want 0,1", ss.Spans[0].Depth, ss.Spans[1].Depth)
	}
	// The inner span must nest inside the outer one's interval.
	in, out := ss.Spans[1], ss.Spans[0]
	if in.StartMS < out.StartMS || in.EndMS() > out.EndMS() {
		t.Errorf("inner [%v,%v] escapes outer [%v,%v]",
			in.StartMS, in.EndMS(), out.StartMS, out.EndMS())
	}
}

func TestSpanZeroDuration(t *testing.T) {
	var ss SpanSet
	h := ss.Begin("instant")
	ss.End(h)
	if len(ss.Spans) != 1 {
		t.Fatalf("spans = %d, want 1 (zero-duration spans are kept)", len(ss.Spans))
	}
	if ss.Spans[0].DurMS < 0 {
		t.Errorf("DurMS = %v, want >= 0", ss.Spans[0].DurMS)
	}
}

func TestSpanOutOfOrderEnd(t *testing.T) {
	var ss SpanSet
	outer := ss.Begin("outer")
	inner := ss.Begin("inner")
	// Ending the outer span first must close the still-open child too, at
	// the same instant, and leave nothing open.
	ss.End(outer)
	if ss.Open() != 0 {
		t.Fatalf("open = %d after out-of-order End, want 0", ss.Open())
	}
	if ss.Spans[1].DurMS < 0 {
		t.Errorf("child DurMS = %v, want closed (>= 0)", ss.Spans[1].DurMS)
	}
	if ss.Spans[1].EndMS() > ss.Spans[0].EndMS() {
		t.Errorf("child ends (%v) after parent (%v)", ss.Spans[1].EndMS(), ss.Spans[0].EndMS())
	}
	// A second End of either handle is a no-op.
	before := ss.Spans[1].DurMS
	ss.End(inner)
	ss.End(outer)
	if ss.Spans[1].DurMS != before || ss.Open() != 0 {
		t.Error("repeated End mutated a closed span")
	}
	// Out-of-range handles are ignored.
	ss.End(SpanHandle(-1))
	ss.End(SpanHandle(99))
}
