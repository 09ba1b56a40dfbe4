package cil

import (
	"testing"

	"gocured/internal/ctypes"
)

// Helpers building IR fragments directly (cfg construction is independent
// of the frontend, so the tests assemble statement trees by hand).

func intTy() *ctypes.Type { return &ctypes.Type{Kind: ctypes.Int, Size: 4} }

func intVar(name string, id int) *Var {
	return &Var{Name: name, Type: intTy(), ID: id}
}

func setI(v *Var, val int64) Stmt {
	return &SInstr{Ins: &Set{LV: VarLV(v), RHS: &Const{I: val, Ty: v.Type}}}
}

func fnOf(stmts ...Stmt) *Func {
	return &Func{Name: "f", Body: &Block{Stmts: stmts}}
}

// blockSetting returns the block holding the Set of constant val.
func blockSetting(t *testing.T, g *CFG, val int64) *BBlock {
	t.Helper()
	for _, b := range g.Blocks {
		for _, si := range b.Instrs {
			if s, ok := si.Ins.(*Set); ok {
				if c, ok := s.RHS.(*Const); ok && c.I == val {
					return b
				}
			}
		}
	}
	t.Fatalf("no block sets %d", val)
	return nil
}

func TestCFGStraightLine(t *testing.T) {
	v := intVar("x", 0)
	g := BuildCFG(fnOf(setI(v, 1), setI(v, 2)))
	rpo := g.ReversePostorder()
	if rpo[0] != g.Entry {
		t.Fatalf("RPO does not start at entry")
	}
	if len(g.Entry.Instrs) != 2 {
		t.Errorf("entry block has %d instrs, want 2", len(g.Entry.Instrs))
	}
	// Falling off the end reaches the exit.
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Errorf("entry should fall through to exit")
	}
}

func TestCFGIfJoin(t *testing.T) {
	v := intVar("x", 0)
	cond := &Lval{LV: VarLV(v)}
	fn := fnOf(
		setI(v, 1),
		&If{Cond: cond, Then: &Block{Stmts: []Stmt{setI(v, 2)}}, Else: &Block{Stmts: []Stmt{setI(v, 3)}}},
		setI(v, 4),
	)
	g := BuildCFG(fn)
	// entry branches to both arms; both arms reach the join holding x=4.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("if head has %d successors, want 2", len(g.Entry.Succs))
	}
	join := g.Entry.Succs[0].Succs[0]
	if join != g.Entry.Succs[1].Succs[0] {
		t.Fatalf("arms do not converge on one join block")
	}
	if len(join.Instrs) != 1 {
		t.Errorf("join block has %d instrs, want 1", len(join.Instrs))
	}
	// A diamond: each arm is entered only from the branch head, and the
	// join only from the two arms.
	for _, arm := range g.Entry.Succs {
		if len(arm.Preds) != 1 || arm.Preds[0] != g.Entry {
			t.Errorf("arm %d has preds %v, want only the branch head", arm.ID, arm.Preds)
		}
	}
	if len(join.Preds) != 2 {
		t.Errorf("join has %d preds, want the two arms", len(join.Preds))
	}
}

func TestCFGMissingElse(t *testing.T) {
	v := intVar("x", 0)
	fn := fnOf(
		&If{Cond: &Lval{LV: VarLV(v)}, Then: &Block{Stmts: []Stmt{setI(v, 2)}}},
		setI(v, 4),
	)
	g := BuildCFG(fn)
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("if head has %d successors, want 2 (then + fallthrough)", len(g.Entry.Succs))
	}
}

func TestCFGLoopShape(t *testing.T) {
	v := intVar("i", 0)
	// loop { if (!i) break; i = 2 } post { i = 3 } — the canonical lowering
	// of a while loop with a post block.
	body := &Block{Stmts: []Stmt{
		&If{Cond: &UnOp{Op: OpNot, X: &Lval{LV: VarLV(v)}, Ty: v.Type}, Then: &Block{Stmts: []Stmt{&Break{}}}},
		setI(v, 2),
	}}
	post := &Block{Stmts: []Stmt{setI(v, 3)}}
	fn := fnOf(setI(v, 1), &Loop{Body: body, Post: post}, setI(v, 4))
	g := BuildCFG(fn)
	if len(g.Entry.Succs) != 1 {
		t.Fatalf("entry has %d successors, want the loop header", len(g.Entry.Succs))
	}
	header := g.Entry.Succs[0]
	// The post block (holding i=3) is the back edge to the header.
	if post := blockSetting(t, g, 3); len(post.Succs) != 1 || post.Succs[0] != header {
		t.Errorf("post block %d does not branch back to the header", post.ID)
	}
	// The break arm of the header's guard is the loop's only edge to the
	// block after it (holding i=4).
	after := blockSetting(t, g, 4)
	if len(after.Preds) != 1 {
		t.Fatalf("block after the loop has %d preds, want the break", len(after.Preds))
	}
	brk := after.Preds[0]
	if len(brk.Succs) != 1 || len(brk.Preds) != 1 || brk.Preds[0] != header {
		t.Errorf("break block %d is not the header's guard arm ending the loop", brk.ID)
	}
}

func TestCFGNestedLoops(t *testing.T) {
	v := intVar("i", 0)
	brk := func() *If {
		return &If{Cond: &Lval{LV: VarLV(v)}, Then: &Block{Stmts: []Stmt{&Break{}}}}
	}
	inner := &Loop{Body: &Block{Stmts: []Stmt{brk(), setI(v, 2)}}}
	outer := &Loop{Body: &Block{Stmts: []Stmt{brk(), inner, setI(v, 3)}}}
	g := BuildCFG(fnOf(outer))
	// A retreating edge goes to a block no later in reverse postorder; each
	// loop contributes exactly one, to its own header.
	rpo := g.ReversePostorder()
	order := make(map[*BBlock]int)
	for i, b := range rpo {
		order[b] = i
	}
	heads := make(map[*BBlock]bool)
	n := 0
	for _, b := range rpo {
		for _, s := range b.Succs {
			if order[s] <= order[b] {
				n++
				heads[s] = true
			}
		}
	}
	if n != 2 || len(heads) != 2 {
		t.Fatalf("%d retreating edges to %d headers, want one per loop", n, len(heads))
	}
	if !heads[g.Entry.Succs[0]] {
		t.Errorf("no retreating edge to the outer loop header")
	}
}

func TestCFGDeadCodeUnreachable(t *testing.T) {
	v := intVar("x", 0)
	fn := fnOf(&Return{}, setI(v, 1)) // code after return
	g := BuildCFG(fn)
	rpo := g.ReversePostorder()
	for _, b := range rpo {
		for _, si := range b.Instrs {
			if _, ok := si.Ins.(*Set); ok {
				t.Errorf("dead instruction reachable in RPO")
			}
		}
	}
	if len(rpo) >= len(g.Blocks) {
		t.Errorf("expected unreachable blocks to be excluded from RPO (%d blocks, %d in RPO)",
			len(g.Blocks), len(rpo))
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	v := intVar("x", 0)
	sw := &Switch{
		X: &Lval{LV: VarLV(v)},
		Cases: []*SwitchCase{
			{Val: 0, Body: []Stmt{setI(v, 1)}}, // falls through
			{Val: 1, Body: []Stmt{setI(v, 2), &Break{}}},
			{IsDefault: true, Body: []Stmt{setI(v, 3)}},
		},
	}
	g := BuildCFG(fnOf(sw, setI(v, 9)))
	// Dispatch block has one successor per case (default present: no direct
	// join edge).
	if len(g.Entry.Succs) != 3 {
		t.Fatalf("switch dispatch has %d successors, want 3", len(g.Entry.Succs))
	}
	// Case 0 falls through into case 1's head.
	c0, c1 := g.Entry.Succs[0], g.Entry.Succs[1]
	fallsThrough := false
	for _, s := range c0.Succs {
		if s == c1 {
			fallsThrough = true
		}
	}
	if !fallsThrough {
		t.Errorf("case 0 does not fall through to case 1")
	}
}
