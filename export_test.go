package gocured

import (
	"gocured/internal/cil"
	"gocured/internal/instrument"
	"gocured/internal/interp"
)

// RunOnBackend exposes the unexported backend-selecting run to the golden
// tests, which compare the VM's Results against the tree walker's.
func RunOnBackend(p *Program, mode Mode, opt RunOptions, backend interp.Backend) (*Result, error) {
	return p.run(mode, opt, backend)
}

// CuredLayout exposes the cured program and its layout oracle to the
// layout golden test.
func CuredLayout(p *Program) (*cil.Program, *instrument.Layout) {
	return p.unit.Cured.Prog, p.unit.Cured.Lay
}
