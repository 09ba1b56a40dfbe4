package gocured

import "gocured/internal/interp"

// RunOnBackend exposes the unexported backend-selecting run to the golden
// tests, which compare the VM's Results against the tree walker's.
func RunOnBackend(p *Program, mode Mode, opt RunOptions, backend interp.Backend) (*Result, error) {
	return p.run(mode, opt, backend)
}
