package vm_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"gocured/internal/core"
	"gocured/internal/corpus"
	"gocured/internal/infer"
	"gocured/internal/instrument"
	"gocured/internal/vm"
)

// guaranteedFusions are the opcode pairs the compiler always fuses when no
// label separates them: either unconditionally, or (linked non-nil) when
// the second instruction consumes the first one's result the way the
// fused form does. A pair left adjacent is a missed fusion.
var guaranteedFusions = []struct {
	prev, next vm.Op
	linked     func(p, n vm.Instr) bool
}{
	{vm.OpStoreLocal, vm.OpStep, nil},
	{vm.OpStoreLocalI, vm.OpStep, nil},
	{vm.OpJumpFalseI, vm.OpStep, nil},
	{vm.OpCheck, vm.OpStep, nil},
	{vm.OpStep, vm.OpCheckBegin, nil},
	{vm.OpStep, vm.OpLoadLocal, nil},
	{vm.OpStep, vm.OpLoadLocalI, nil},
	{vm.OpConstInt, vm.OpBinI, rhsOperand},
	{vm.OpConstInt, vm.OpPtrAdd, rhsOperand},
	{vm.OpLoadLocalI, vm.OpBinI, rhsOperand},
	{vm.OpLoadLocalI, vm.OpPtrAdd, rhsOperand},
	{vm.OpLoadLocalI, vm.OpBinConstI, lhsOperand},
	{vm.OpStepLoadLocalI, vm.OpBinConstI, lhsOperand},
	{vm.OpLoadLocal, vm.OpPtrAddConst, lhsOperand},
	{vm.OpBinI, vm.OpJumpFalseI, lhsOperand},
	{vm.OpBinConstI, vm.OpJumpFalseI, lhsOperand},
	{vm.OpFieldOff, vm.OpLoad, lhsOperand},
	{vm.OpFieldOff, vm.OpLoadI, lhsOperand},
}

// rhsOperand: n folds p's result as its right operand, in place on a
// different left one.
func rhsOperand(p, n vm.Instr) bool { return n.C == p.A && n.B != p.A && n.A == n.B }

// lhsOperand: n reads p's result as its (first) operand B.
func lhsOperand(p, n vm.Instr) bool { return n.B == p.A }

// jumpTargets marks every index some instruction of code can jump to.
func jumpTargets(code []vm.Instr) []bool {
	target := make([]bool, len(code)+1)
	for _, in := range code {
		switch in.Op {
		case vm.OpJump, vm.OpJumpFalse, vm.OpJumpFalseI, vm.OpJumpTrue, vm.OpJumpTrueI,
			vm.OpJumpEq, vm.OpJumpBack, vm.OpStackTest, vm.OpJumpBinFalseI,
			vm.OpJumpBinConstFalseI, vm.OpJumpFalseStepI:
			target[in.A] = true
		}
	}
	return target
}

// TestFusionComplete compiles the raw and cured module of every corpus
// program and fails on any guaranteed fusion pair left adjacent at an
// index no jump lands on. Run with -v for the corpus-wide static opcode
// counts.
func TestFusionComplete(t *testing.T) {
	progs := corpus.All()
	mods := make([][2]*vm.Module, len(progs))
	t.Run("compile", func(t *testing.T) {
		for i, p := range progs {
			i, p := i, p
			t.Run(p.Name, func(t *testing.T) {
				t.Parallel()
				u, err := core.Build(p.Name+".c", p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				mods[i] = [2]*vm.Module{vm.Compile(u.Raw, instrument.RawLayout{}), vm.Compile(u.Cured.Prog, u.Cured.Lay)}
			})
		}
	})
	counts := map[vm.Op]int{}
	missed := map[string]int{}
	for i, pair := range mods {
		for m, mod := range pair {
			if mod == nil {
				t.Fatalf("%s: not compiled", progs[i].Name)
			}
			for _, fc := range mod.Funcs {
				target := jumpTargets(fc.Code)
				for j, in := range fc.Code {
					counts[in.Op]++
					if j == 0 || target[j] {
						continue
					}
					for _, f := range guaranteedFusions {
						p := fc.Code[j-1]
						if p.Op != f.prev || in.Op != f.next || (f.linked != nil && !f.linked(p, in)) {
							continue
						}
						key := fmt.Sprintf("%s -> %s", f.prev, f.next)
						if missed[key]++; missed[key] <= 3 {
							t.Errorf("%s (%s) %s@%d: %s left unfused", progs[i].Name,
								[]string{"raw", "cured"}[m], fc.Fn.Name, j, key)
						}
					}
				}
			}
		}
	}
	for pair, n := range missed {
		t.Errorf("%d unfused %s pairs across the corpus", n, pair)
	}
	var lines []string
	total := 0
	for op := vm.Op(0); op < vm.NumOps; op++ {
		if counts[op] > 0 {
			lines = append(lines, fmt.Sprintf("%-24s %6d", op, counts[op]))
			total += counts[op]
		}
	}
	sort.Strings(lines)
	t.Logf("static opcode counts over %d modules (%d instructions):\n%s", 2*len(mods), total, strings.Join(lines, "\n"))
}
