package interp

// ArenaSize exposes the simulated arena's length to the external tests.
func (m *Machine) ArenaSize() int { return m.mem.Size() }
