// Package mem implements gocured's simulated memory: a flat little-endian
// arena of 4-byte-word ILP32 memory in which globals, stack frames, heap
// blocks, and string literals are allocated as contiguous blocks.
//
// Two properties matter for the experiments:
//
//   - In raw (uncured) execution, out-of-bounds accesses inside the arena
//     silently corrupt neighbouring blocks — exactly like real C — so the
//     exploit demonstrations are genuine.
//   - Blocks carry the metadata CCured's run-time needs: region (for the
//     stack-escape check), WILD tags (one per word), and liveness.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Region classifies a block's storage class.
type Region int

// Regions.
const (
	RegNull Region = iota // the unmapped null page
	RegGlobal
	RegStack
	RegHeap
	RegCode // function descriptors (not readable/writable data)
)

var regionNames = [...]string{"null", "global", "stack", "heap", "code"}

func (r Region) String() string { return regionNames[r] }

// Block is one allocation.
type Block struct {
	ID     int
	Addr   uint32
	Size   uint32
	Region Region
	Name   string
	Dead   bool // freed heap block or popped stack frame

	// Wild marks a dynamically-typed (WILD) area; Tags has one entry per
	// word, nonzero meaning "this word holds a valid pointer base".
	Wild bool
	Tags []uint8

	// Fresh marks heap memory whose dynamic type is not yet fixed
	// (allocator results): RTTI downcasts into fresh blocks succeed if the
	// target fits.
	Fresh bool
}

// End returns the first address past the block.
func (b *Block) End() uint32 { return b.Addr + b.Size }

// Contains reports whether addr lies within the block.
func (b *Block) Contains(addr uint32) bool { return addr >= b.Addr && addr < b.End() }

// Trap is a memory-safety violation detected by the simulated memory or by
// a CCured run-time check.
type Trap struct {
	Kind string
	Msg  string
	// Pos is the rendered source location ("file:line:col") of the trapping
	// statement; empty when unknown. Stack is the cured-program call stack,
	// innermost frame first. Both are attached by the interpreter at trap
	// time (mem itself has no source information).
	Pos   string
	Stack []string
}

func (t *Trap) Error() string {
	if t.Pos != "" {
		return fmt.Sprintf("memory trap (%s) at %s: %s", t.Kind, t.Pos, t.Msg)
	}
	return fmt.Sprintf("memory trap (%s): %s", t.Kind, t.Msg)
}

// NewTrap builds a trap error.
func NewTrap(kind, format string, args ...any) *Trap {
	return &Trap{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// nullPage is the size of the reserved unmapped region at address 0, so
// that null and near-null dereferences fault even in raw mode.
const nullPage = 64

// Memory is the flat simulated address space.
type Memory struct {
	arena  []byte
	brk    uint32   // allocation cursor (arena keeps slack beyond it)
	blocks []*Block // sorted by Addr (allocation is monotonic)
	nextID int

	stackBase, stackSize, sp uint32
	stack                    []*Block // live frames, contiguous, LIFO

	// Loads/Stores count raw accesses (for the harness's counters).
	Loads, Stores uint64
}

// New returns an empty memory with the null page reserved.
func New() *Memory {
	m := &Memory{arena: make([]byte, nullPage, 1<<16), brk: nullPage}
	m.blocks = append(m.blocks, &Block{ID: 0, Addr: 0, Size: nullPage, Region: RegNull, Name: "<null>"})
	m.nextID = 1
	return m
}

func align8(n uint32) uint32 { return (n + 7) &^ 7 }

// allocSlack keeps mapped bytes beyond the last block so that modest
// overflows land in valid (future) memory and corrupt silently, as on a
// real heap, instead of faulting at the arena edge.
const allocSlack = 256

// extend maps the arena up to address to. The bytes between the old
// length and the capacity were never written (the arena only grows and
// every access is bounded by its length), so one reslice after a single
// slices.Grow yields zeroed memory.
func (m *Memory) extend(to uint32) {
	if n := int(to) - len(m.arena); n > 0 {
		m.arena = slices.Grow(m.arena, n)[:to]
	}
}

// Alloc carves a new block. Sizes of 0 are rounded up to one word so every
// object has a distinct address.
func (m *Memory) Alloc(size uint32, region Region, name string) *Block {
	if size == 0 {
		size = 4
	}
	addr := align8(m.brk)
	m.extend(addr + size + allocSlack)
	// Zero the block (heap reuse does not occur, but slack may have been
	// scribbled on by a past overflow).
	clear(m.arena[addr : addr+size])
	m.brk = addr + size
	b := &Block{ID: m.nextID, Addr: addr, Size: size, Region: region, Name: name}
	m.nextID++
	m.blocks = append(m.blocks, b)
	return b
}

// Free marks a heap block dead. Double frees and non-heap frees trap.
func (m *Memory) Free(addr uint32) error {
	b := m.BlockAt(addr)
	if b == nil || b.Addr != addr {
		return NewTrap("free", "free of non-block address 0x%x", addr)
	}
	if b.Region != RegHeap {
		return NewTrap("free", "free of %s memory %q", b.Region, b.Name)
	}
	if b.Dead {
		return NewTrap("free", "double free of %q", b.Name)
	}
	b.Dead = true
	return nil
}

// BlockAt returns the block containing addr, or nil.
func (m *Memory) BlockAt(addr uint32) *Block {
	if m.InStack(addr) {
		return m.stackBlockAt(addr)
	}
	i := sort.Search(len(m.blocks), func(i int) bool { return m.blocks[i].Addr > addr })
	if i == 0 {
		return nil
	}
	b := m.blocks[i-1]
	if b.Contains(addr) {
		return b
	}
	return nil
}

// MakeWild marks a block as a dynamically-typed (WILD) area and allocates
// its per-word tags.
func (b *Block) MakeWild() {
	if !b.Wild {
		b.Wild = true
		b.Tags = make([]uint8, (b.Size+3)/4)
	}
}

// TagAt returns the tag of the word containing addr.
func (b *Block) TagAt(addr uint32) uint8 {
	if !b.Wild {
		return 0
	}
	i := (addr - b.Addr) / 4
	if int(i) >= len(b.Tags) {
		return 0
	}
	return b.Tags[i]
}

// SetTag sets the tag of the word containing addr.
func (b *Block) SetTag(addr uint32, v uint8) {
	if !b.Wild {
		return
	}
	i := (addr - b.Addr) / 4
	if int(i) < len(b.Tags) {
		b.Tags[i] = v
	}
}

// mapped reports whether the size bytes at addr lie in the arena and
// outside the null page. It is small enough to inline, so hot paths test
// it and build a trap (through inArena) only when it fails.
func (m *Memory) mapped(addr, size uint32) bool {
	return addr >= nullPage && uint64(addr)+uint64(size) <= uint64(len(m.arena))
}

// inArena checks a raw access; even raw mode cannot escape the arena or
// touch the null page.
func (m *Memory) inArena(addr, size uint32) error {
	if m.mapped(addr, size) {
		return nil
	}
	if addr < nullPage {
		return NewTrap("segv", "access to address 0x%x in the null page", addr)
	}
	return NewTrap("segv", "access to unmapped address 0x%x", addr)
}

// LoadInt is ReadInt's fast path: when the access is mapped and size is
// a C integer width (1, 2, 4 or 8) it counts the load and returns the
// value. Otherwise it reports false and touches nothing, and the caller
// takes ReadInt for the trap.
func (m *Memory) LoadInt(addr uint32, size int, signed bool) (int64, bool) {
	if !m.mapped(addr, uint32(size)) {
		return 0, false
	}
	var u uint64
	switch size {
	case 1:
		u = uint64(m.arena[addr])
	case 2:
		u = uint64(binary.LittleEndian.Uint16(m.arena[addr:]))
	case 4:
		u = uint64(binary.LittleEndian.Uint32(m.arena[addr:]))
	case 8:
		u = binary.LittleEndian.Uint64(m.arena[addr:])
	default:
		return 0, false
	}
	m.Loads++
	if sh := 64 - 8*uint(size); signed {
		return int64(u<<sh) >> sh, true
	}
	return int64(u), true
}

// ReadInt loads a little-endian integer of the given byte size.
func (m *Memory) ReadInt(addr uint32, size int, signed bool) (int64, error) {
	if v, ok := m.LoadInt(addr, size, signed); ok {
		return v, nil
	}
	if err := m.inArena(addr, uint32(size)); err != nil {
		return 0, err
	}
	m.Loads++
	return 0, NewTrap("access", "bad integer size %d", size)
}

// StoreInt is WriteInt's fast path, the store-side twin of LoadInt.
func (m *Memory) StoreInt(addr uint32, size int, v int64) bool {
	if !m.mapped(addr, uint32(size)) {
		return false
	}
	switch size {
	case 1:
		m.arena[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.arena[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.arena[addr:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(m.arena[addr:], uint64(v))
	default:
		return false
	}
	m.Stores++
	return true
}

// WriteInt stores a little-endian integer of the given byte size.
func (m *Memory) WriteInt(addr uint32, size int, v int64) error {
	if m.StoreInt(addr, size, v) {
		return nil
	}
	if err := m.inArena(addr, uint32(size)); err != nil {
		return err
	}
	m.Stores++
	return NewTrap("access", "bad integer size %d", size)
}

// ReadFloat loads a float of byte size 4 or 8.
func (m *Memory) ReadFloat(addr uint32, size int) (float64, error) {
	if err := m.inArena(addr, uint32(size)); err != nil {
		return 0, err
	}
	m.Loads++
	if size == 4 {
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(m.arena[addr:]))), nil
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(m.arena[addr:])), nil
}

// WriteFloat stores a float of byte size 4 or 8.
func (m *Memory) WriteFloat(addr uint32, size int, v float64) error {
	if err := m.inArena(addr, uint32(size)); err != nil {
		return err
	}
	m.Stores++
	if size == 4 {
		binary.LittleEndian.PutUint32(m.arena[addr:], math.Float32bits(float32(v)))
	} else {
		binary.LittleEndian.PutUint64(m.arena[addr:], math.Float64bits(v))
	}
	return nil
}

// ReadWord loads one 32-bit word (pointers).
func (m *Memory) ReadWord(addr uint32) (uint32, error) {
	if !m.mapped(addr, 4) {
		return 0, m.inArena(addr, 4)
	}
	m.Loads++
	return binary.LittleEndian.Uint32(m.arena[addr:]), nil
}

// WriteWord stores one 32-bit word.
func (m *Memory) WriteWord(addr uint32, v uint32) error {
	if !m.mapped(addr, 4) {
		return m.inArena(addr, 4)
	}
	m.Stores++
	binary.LittleEndian.PutUint32(m.arena[addr:], v)
	return nil
}

// Copy moves n bytes from src to dst (memmove semantics).
func (m *Memory) Copy(dst, src, n uint32) error {
	if n == 0 {
		return nil
	}
	if err := m.inArena(src, n); err != nil {
		return err
	}
	if err := m.inArena(dst, n); err != nil {
		return err
	}
	m.Loads += uint64(n)
	m.Stores += uint64(n)
	copy(m.arena[dst:dst+n], m.arena[src:src+n])
	return nil
}

// SetBytes fills n bytes at addr with c.
func (m *Memory) SetBytes(addr uint32, c byte, n uint32) error {
	if n == 0 {
		return nil
	}
	if err := m.inArena(addr, n); err != nil {
		return err
	}
	m.Stores += uint64(n)
	for i := uint32(0); i < n; i++ {
		m.arena[addr+i] = c
	}
	return nil
}

// Bytes returns a copy of n bytes at addr (for builtins reading strings).
func (m *Memory) Bytes(addr, n uint32) ([]byte, error) {
	if err := m.inArena(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, m.arena[addr:addr+n])
	return out, nil
}

// CString reads a NUL-terminated string at addr, bounded by limit bytes
// (and by the arena).
func (m *Memory) CString(addr uint32, limit uint32) (string, error) {
	var out []byte
	for i := uint32(0); i < limit; i++ {
		if err := m.inArena(addr+i, 1); err != nil {
			return "", err
		}
		c := m.arena[addr+i]
		if c == 0 {
			return string(out), nil
		}
		out = append(out, c)
	}
	return string(out), nil
}

// Size returns the current arena extent in bytes.
func (m *Memory) Size() int { return len(m.arena) }

// Blocks returns all blocks (for diagnostics).
func (m *Memory) Blocks() []*Block { return m.blocks }
