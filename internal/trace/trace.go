// Package trace records the provenance of gocured's inference decisions and
// reconstructs blame chains from them. Every constraint edge the inference
// generates (data flow, unification, base containment) is recorded with the
// rule that produced it and its source location; every fact that seeds a
// kind (a bad cast, pointer arithmetic, a disguised integer, a checked
// downcast, a user annotation) is recorded as a seed. A blame chain is the
// shortest path — along the directions the corresponding kind actually
// propagates — from a pointer node back to a seed: the answer to "which
// cast made this pointer WILD?".
//
// A Prov is populated single-threaded during inference and read-only
// afterwards; Explain may be called from many goroutines concurrently (the
// adjacency index is built once, lazily).
package trace

import (
	"fmt"
	"strings"
	"sync"

	"gocured/internal/diag"
)

// Cat classifies a constraint edge by how kinds propagate across it.
type Cat int

// Edge categories.
const (
	// CatFlow is directed data flow (assignment src -> dst). WILD spreads
	// both ways; SEQ and RTTI demands travel dst -> src (recorded From->To,
	// explained by walking From->To from the pointer toward the seed).
	CatFlow Cat = iota
	// CatUnify merges two nodes into one equivalence class (physical
	// equality, array decay); every kind crosses it in both directions.
	CatUnify
	// CatBase records containment: From's pointee representation contains
	// the pointer To. WILD spreads From -> To only.
	CatBase
)

var catNames = [...]string{"flow", "unify", "base"}

func (c Cat) String() string { return catNames[c] }

// Edge is one recorded constraint edge between qualifier nodes (by ID).
type Edge struct {
	From, To int
	Cat      Cat
	// Rule names the inference rule that generated the edge ("assign",
	// "upcast", "cast-identity", "decay", "contains", ...).
	Rule string
	Pos  diag.Pos
}

// Seed is one recorded kind-forcing fact on a node.
type Seed struct {
	Node int
	// Fact names the forcing fact: "bad-cast", "arith", "int-cast",
	// "int-cast-flow", "rtti-need", "forced-SAFE/SEQ/WILD/RTTI", "demoted".
	Fact string
	Pos  diag.Pos
	Why  string
}

// Goal selects which kind's propagation rules a blame search follows.
type Goal int

// Goals.
const (
	GoalWild Goal = iota
	GoalSeq
	GoalRtti
)

var goalNames = [...]string{"WILD", "SEQ", "RTTI"}

func (g Goal) String() string { return goalNames[g] }

// seedFacts lists which seed facts can originate each goal kind.
var seedFacts = map[Goal]map[string]bool{
	GoalWild: {"bad-cast": true, "forced-WILD": true, "demoted": true},
	GoalSeq:  {"arith": true, "int-cast": true, "int-cast-flow": true, "forced-SEQ": true},
	GoalRtti: {"rtti-need": true, "forced-RTTI": true},
}

// Prov accumulates provenance during inference.
type Prov struct {
	Edges []Edge
	Seeds []Seed
	// Text renders a node's human description (its type) for blame
	// chains. It runs only when a chain is rendered; nil renders "?".
	Text func(node int) string

	once  sync.Once
	out   map[int][]int // node -> indices into Edges where node == From
	in    map[int][]int // node -> indices into Edges where node == To
	seedN map[int][]int // node -> indices into Seeds
}

// NewProv returns an empty recorder.
func NewProv() *Prov {
	return &Prov{}
}

// AddEdge records one constraint edge.
func (p *Prov) AddEdge(from, to int, cat Cat, rule string, pos diag.Pos) {
	if p == nil || from == 0 || to == 0 {
		return
	}
	p.Edges = append(p.Edges, Edge{From: from, To: to, Cat: cat, Rule: rule, Pos: pos})
}

// AddSeed records one kind-forcing fact.
func (p *Prov) AddSeed(node int, fact string, pos diag.Pos, why string) {
	if p == nil || node == 0 {
		return
	}
	p.Seeds = append(p.Seeds, Seed{Node: node, Fact: fact, Pos: pos, Why: why})
}

// desc renders the description of a node.
func (p *Prov) desc(node int) string {
	if p.Text == nil {
		return "?"
	}
	return p.Text(node)
}

func (p *Prov) index() {
	p.once.Do(func() {
		p.out = make(map[int][]int)
		p.in = make(map[int][]int)
		p.seedN = make(map[int][]int)
		for i, e := range p.Edges {
			p.out[e.From] = append(p.out[e.From], i)
			p.in[e.To] = append(p.in[e.To], i)
		}
		for i, s := range p.Seeds {
			p.seedN[s.Node] = append(p.seedN[s.Node], i)
		}
	})
}

// Step is one traversed edge of a blame chain. Reversed reports that the
// chain walks the edge against its recorded direction (To -> From).
type Step struct {
	Edge     Edge
	Reversed bool
}

// Chain is a reconstructed blame chain: the shortest constraint path from
// Target to a seed that forces the goal kind.
type Chain struct {
	Goal   Goal
	Target int
	Steps  []Step
	// Seed is the forcing fact the chain ends at; nil when the target kind
	// needs no blame (SAFE) or no chain was found.
	Seed *Seed

	prov *Prov
}

// Explain returns the shortest blame chain for the goal kind ending at a
// seed, or nil if no seed is reachable (which indicates the node does not
// actually have the goal kind).
func (p *Prov) Explain(target int, goal Goal) *Chain {
	if p == nil || target == 0 {
		return nil
	}
	p.index()
	facts := seedFacts[goal]
	seedAt := func(n int) *Seed {
		for _, i := range p.seedN[n] {
			if facts[p.Seeds[i].Fact] {
				return &p.Seeds[i]
			}
		}
		return nil
	}

	// BFS over the moves the goal kind's propagation allows.
	type visit struct {
		node int
		prev int  // index into order, -1 for the root
		edge int  // Edges index taken to reach node
		rev  bool // edge walked To -> From
	}
	order := []visit{{node: target, prev: -1, edge: -1}}
	seen := map[int]bool{target: true}
	finish := -1
	for qi := 0; qi < len(order) && finish < 0; qi++ {
		cur := order[qi]
		if seedAt(cur.node) != nil {
			finish = qi
			break
		}
		expand := func(edgeIdx int, next int, rev bool) {
			if !seen[next] {
				seen[next] = true
				order = append(order, visit{node: next, prev: qi, edge: edgeIdx, rev: rev})
			}
		}
		for _, ei := range p.out[cur.node] {
			e := p.Edges[ei]
			switch e.Cat {
			case CatUnify:
				expand(ei, e.To, false)
			case CatFlow:
				// WILD spreads both ways; SEQ/RTTI demands are explained by
				// walking with the data flow toward the consumer that
				// required them.
				expand(ei, e.To, false)
			case CatBase:
				// From's wildness spreads into To, never back: walking
				// From -> To cannot explain From.
			}
		}
		for _, ei := range p.in[cur.node] {
			e := p.Edges[ei]
			switch e.Cat {
			case CatUnify:
				expand(ei, e.From, true)
			case CatFlow:
				if goal == GoalWild {
					expand(ei, e.From, true)
				}
			case CatBase:
				if goal == GoalWild {
					// target is contained in From's pointee: its wildness
					// came down from the container.
					expand(ei, e.From, true)
				}
			}
		}
	}
	if finish < 0 {
		return nil
	}
	ch := &Chain{Goal: goal, Target: target, Seed: seedAt(order[finish].node), prov: p}
	// Walk back to the root, collecting steps target-first.
	var rev []Step
	for qi := finish; order[qi].prev >= 0; qi = order[qi].prev {
		rev = append(rev, Step{Edge: p.Edges[order[qi].edge], Reversed: order[qi].rev})
	}
	for i := len(rev) - 1; i >= 0; i-- {
		ch.Steps = append(ch.Steps, rev[i])
	}
	return ch
}

// Render formats the chain as an indented, annotated block:
//
//	n12 (int *) went WILD:
//	  n12 = n8 [unify: cast-identity] at t.c:9:5
//	  n8 <- flow -> n3 [assign] at t.c:4:2
//	  n3: bad cast at t.c:9:10 (struct A * incompatible with int *)
func (c *Chain) Render() string {
	if c == nil {
		return ""
	}
	p := c.prov
	var b strings.Builder
	fmt.Fprintf(&b, "n%d (%s) is %s:\n", c.Target, p.desc(c.Target), c.Goal)
	cur := c.Target
	for _, s := range c.Steps {
		next := s.Edge.To
		if s.Reversed {
			next = s.Edge.From
		}
		arrow := "->"
		if s.Reversed && s.Edge.Cat != CatUnify {
			arrow = "<-"
		}
		if s.Edge.Cat == CatUnify {
			arrow = "=="
		}
		fmt.Fprintf(&b, "  n%d %s n%d (%s) [%s: %s]", cur, arrow, next, p.desc(next), s.Edge.Cat, s.Edge.Rule)
		if s.Edge.Pos.IsValid() {
			fmt.Fprintf(&b, " at %s", s.Edge.Pos)
		}
		b.WriteByte('\n')
		cur = next
	}
	if c.Seed != nil {
		fmt.Fprintf(&b, "  n%d: %s", c.Seed.Node, c.Seed.Fact)
		if c.Seed.Pos.IsValid() {
			fmt.Fprintf(&b, " at %s", c.Seed.Pos)
		}
		if c.Seed.Why != "" {
			fmt.Fprintf(&b, " (%s)", c.Seed.Why)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Lines returns the rendered chain split into lines (for JSON transport).
func (c *Chain) Lines() []string {
	s := strings.TrimRight(c.Render(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
