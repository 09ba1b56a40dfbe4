package mem

// Stack support: a dedicated region in which call frames push and pop, so
// long-running programs reuse stack memory instead of growing the arena.
// Popped frames leave their bytes in place (dangling pointers read garbage,
// as in real C) until the next push overwrites them.

// InitStack reserves a stack region of the given size. Must be called once
// before PushFrame.
func (m *Memory) InitStack(size uint32) {
	if m.stackBase != 0 {
		return
	}
	base := align8(m.brk)
	m.extend(base + size + allocSlack)
	m.brk = base + size
	m.stackBase = base
	m.stackSize = size
	m.sp = base
}

// InStack reports whether addr lies in the stack region.
func (m *Memory) InStack(addr uint32) bool {
	return m.stackBase != 0 && addr >= m.stackBase && addr < m.stackBase+m.stackSize
}

// PushFrame allocates a zeroed stack frame.
func (m *Memory) PushFrame(size uint32, name string) (*Block, error) {
	if size == 0 {
		size = 8
	}
	addr := align8(m.sp)
	if addr+size > m.stackBase+m.stackSize {
		return nil, NewTrap("stack-overflow", "stack overflow pushing frame %q (%d bytes)", name, size)
	}
	// Zero the frame (locals read as 0 until initialized; see DESIGN.md).
	clear(m.arena[addr : addr+size])
	// Reuse the record of the frame last popped at this depth: nothing
	// holds a popped frame (BlockAt finds only live ones), and a call per
	// record would make frame records most of a run's allocations.
	n := len(m.stack)
	var b *Block
	if n < cap(m.stack) {
		b = m.stack[:n+1][n]
	}
	if b == nil {
		b = new(Block)
	}
	*b = Block{ID: m.nextID, Addr: addr, Size: size, Region: RegStack, Name: name}
	m.nextID++
	m.stack = append(m.stack, b)
	m.sp = addr + size
	return b, nil
}

// PopFrame releases the most recent frame.
func (m *Memory) PopFrame() {
	if len(m.stack) == 0 {
		return
	}
	b := m.stack[len(m.stack)-1]
	b.Dead = true
	m.stack = m.stack[:len(m.stack)-1]
	m.sp = b.Addr
}

// stackBlockAt finds the live frame containing addr (frames are contiguous
// and sorted by address).
func (m *Memory) stackBlockAt(addr uint32) *Block {
	for i := len(m.stack) - 1; i >= 0; i-- {
		if m.stack[i].Contains(addr) {
			return m.stack[i]
		}
		if m.stack[i].Addr <= addr {
			break
		}
	}
	return nil
}
