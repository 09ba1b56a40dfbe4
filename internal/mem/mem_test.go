package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestAllocAndBlockAt(t *testing.T) {
	m := New()
	a := m.Alloc(16, RegHeap, "a")
	b := m.Alloc(32, RegGlobal, "b")
	if a.Addr == 0 || b.Addr == 0 {
		t.Fatal("blocks must not start at the null page")
	}
	if a.End() > b.Addr {
		t.Fatal("blocks overlap")
	}
	if got := m.BlockAt(a.Addr + 7); got != a {
		t.Errorf("BlockAt inside a = %v", got)
	}
	if got := m.BlockAt(b.Addr); got != b {
		t.Errorf("BlockAt start of b = %v", got)
	}
	if got := m.BlockAt(3); got == nil || got.Region != RegNull {
		t.Errorf("BlockAt null page = %v", got)
	}
}

func TestNullPageTraps(t *testing.T) {
	m := New()
	if _, err := m.ReadInt(0, 4, true); err == nil {
		t.Error("read of address 0 must trap")
	}
	if err := m.WriteInt(8, 4, 1); err == nil {
		t.Error("write into the null page must trap")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	b := m.Alloc(64, RegHeap, "rt")
	cases := []struct {
		size   int
		signed bool
		v      int64
	}{
		{1, true, -5}, {1, false, 250}, {2, true, -30000}, {2, false, 60000},
		{4, true, -2000000000}, {4, false, 4000000000}, {8, true, -1 << 60},
	}
	for _, c := range cases {
		if err := m.WriteInt(b.Addr, c.size, c.v); err != nil {
			t.Fatal(err)
		}
		got, err := m.ReadInt(b.Addr, c.size, c.signed)
		if err != nil {
			t.Fatal(err)
		}
		want := c.v
		switch c.size {
		case 1:
			if c.signed {
				want = int64(int8(c.v))
			} else {
				want = int64(uint8(c.v))
			}
		case 2:
			if c.signed {
				want = int64(int16(c.v))
			} else {
				want = int64(uint16(c.v))
			}
		case 4:
			if c.signed {
				want = int64(int32(c.v))
			} else {
				want = int64(uint32(c.v))
			}
		}
		if got != want {
			t.Errorf("size %d signed %v: wrote %d, read %d, want %d", c.size, c.signed, c.v, got, want)
		}
	}
	if err := m.WriteFloat(b.Addr, 8, 3.25); err != nil {
		t.Fatal(err)
	}
	if f, _ := m.ReadFloat(b.Addr, 8); f != 3.25 {
		t.Errorf("double round trip = %g", f)
	}
	if err := m.WriteFloat(b.Addr, 4, 1.5); err != nil {
		t.Fatal(err)
	}
	if f, _ := m.ReadFloat(b.Addr, 4); f != 1.5 {
		t.Errorf("float round trip = %g", f)
	}
}

func TestFreeSemantics(t *testing.T) {
	m := New()
	b := m.Alloc(8, RegHeap, "f")
	g := m.Alloc(8, RegGlobal, "g")
	if err := m.Free(b.Addr); err != nil {
		t.Fatalf("first free: %v", err)
	}
	if err := m.Free(b.Addr); err == nil {
		t.Error("double free must trap")
	}
	if err := m.Free(g.Addr); err == nil {
		t.Error("free of a global must trap")
	}
	if err := m.Free(b.Addr + 4); err == nil {
		t.Error("free of an interior pointer must trap")
	}
}

func TestOverflowCorruptsSilently(t *testing.T) {
	m := New()
	a := m.Alloc(8, RegGlobal, "a")
	b := m.Alloc(8, RegGlobal, "b")
	if err := m.WriteInt(b.Addr, 4, 1234); err != nil {
		t.Fatal(err)
	}
	// Write past a's end far enough to hit b.
	off := b.Addr - a.Addr
	if err := m.WriteInt(a.Addr+off, 4, 9999); err != nil {
		t.Fatalf("in-arena overflow must not trap: %v", err)
	}
	v, _ := m.ReadInt(b.Addr, 4, true)
	if v != 9999 {
		t.Errorf("b = %d, want corruption to 9999", v)
	}
}

func TestStackPushPop(t *testing.T) {
	m := New()
	m.InitStack(4096)
	f1, err := m.PushFrame(64, "f1")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := m.PushFrame(64, "f2")
	if err != nil {
		t.Fatal(err)
	}
	if !m.InStack(f1.Addr) || !m.InStack(f2.Addr) {
		t.Error("frames must be in the stack region")
	}
	if got := m.BlockAt(f2.Addr + 8); got != f2 {
		t.Errorf("BlockAt inner frame = %v", got)
	}
	m.PopFrame()
	if got := m.BlockAt(f2.Addr + 8); got != nil {
		t.Errorf("popped frame still found: %v", got)
	}
	// Memory is reused by the next push.
	f3, err := m.PushFrame(32, "f3")
	if err != nil {
		t.Fatal(err)
	}
	if f3.Addr != f2.Addr {
		t.Errorf("frame not reused: f3 at 0x%x, f2 was 0x%x", f3.Addr, f2.Addr)
	}
}

func TestStackOverflow(t *testing.T) {
	m := New()
	m.InitStack(256)
	if _, err := m.PushFrame(128, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushFrame(200, "b"); err == nil {
		t.Error("expected stack overflow")
	}
}

func TestWildTags(t *testing.T) {
	m := New()
	b := m.Alloc(32, RegHeap, "w")
	if b.TagAt(b.Addr) != 0 {
		t.Error("non-wild block has tags")
	}
	b.MakeWild()
	b.SetTag(b.Addr+8, 1)
	if b.TagAt(b.Addr+8) != 1 || b.TagAt(b.Addr+11) != 1 {
		t.Error("tag covers its whole word")
	}
	if b.TagAt(b.Addr+12) != 0 {
		t.Error("neighbouring word tagged")
	}
	b.SetTag(b.Addr+8, 0)
	if b.TagAt(b.Addr+8) != 0 {
		t.Error("tag not cleared")
	}
}

func TestCStringAndBytes(t *testing.T) {
	m := New()
	b := m.Alloc(16, RegGlobal, "s")
	for i, c := range []byte("hi!") {
		if err := m.WriteInt(b.Addr+uint32(i), 1, int64(c)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := m.CString(b.Addr, 16)
	if err != nil || s != "hi!" {
		t.Errorf("CString = %q, %v", s, err)
	}
	bs, err := m.Bytes(b.Addr, 3)
	if err != nil || string(bs) != "hi!" {
		t.Errorf("Bytes = %q, %v", bs, err)
	}
}

func TestCopyOverlap(t *testing.T) {
	m := New()
	b := m.Alloc(16, RegHeap, "c")
	for i := 0; i < 8; i++ {
		if err := m.WriteInt(b.Addr+uint32(i), 1, int64('a'+i)); err != nil {
			t.Fatal(err)
		}
	}
	// memmove semantics: overlapping copy forward.
	if err := m.Copy(b.Addr+2, b.Addr, 8); err != nil {
		t.Fatal(err)
	}
	s, _ := m.CString(b.Addr, 16)
	if s[2:10] != "abcdefgh" {
		t.Errorf("after overlap copy: %q", s)
	}
}

// Property: Alloc never produces overlapping live blocks, and BlockAt
// always maps interior addresses back to their block.
func TestAllocProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New()
		var blocks []*Block
		for _, s := range sizes {
			blocks = append(blocks, m.Alloc(uint32(s%100)+1, RegHeap, "p"))
		}
		for i, b := range blocks {
			for j, c := range blocks {
				if i != j && b.Addr < c.End() && c.Addr < b.End() {
					return false
				}
			}
			if m.BlockAt(b.Addr) != b || m.BlockAt(b.End()-1) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A block that forces the arena past its capacity reads all zero, even
// where an earlier overflow scribbled on the slack it now covers.
func TestAllocPastCapacityIsZeroed(t *testing.T) {
	m := New()
	a := m.Alloc(16, RegHeap, "a")
	if err := m.SetBytes(a.End(), 0xAB, allocSlack); err != nil {
		t.Fatalf("overflow into the slack must not trap: %v", err)
	}
	oldCap := cap(m.arena)
	b := m.Alloc(uint32(4*oldCap), RegHeap, "big")
	if cap(m.arena) <= oldCap {
		t.Fatalf("arena did not grow: cap %d", cap(m.arena))
	}
	if b.Addr >= a.End()+allocSlack {
		t.Fatalf("block at 0x%x does not cover the scribbled slack [0x%x,0x%x)", b.Addr, a.End(), a.End()+allocSlack)
	}
	bs, err := m.Bytes(b.Addr, b.Size)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range bs {
		if c != 0 {
			t.Fatalf("byte %d of the new block is 0x%x, want 0", i, c)
		}
	}
	if got := m.Size(); got != int(b.End())+allocSlack {
		t.Errorf("arena length %d, want block end + slack = %d", got, int(b.End())+allocSlack)
	}
}

// A raw overflow shorter than allocSlack past brk lands in mapped slack
// and corrupts silently; the first byte past the slack is unmapped.
func TestOverflowIntoSlack(t *testing.T) {
	m := New()
	b := m.Alloc(8, RegHeap, "b")
	last := b.End() + allocSlack - 4
	if err := m.WriteInt(last, 4, 77); err != nil {
		t.Fatalf("overflow within the slack must not trap: %v", err)
	}
	if v, err := m.ReadInt(last, 4, true); err != nil || v != 77 {
		t.Fatalf("slack word = %d, %v; want 77", v, err)
	}
	err := m.WriteInt(last+4, 1, 1)
	if tr, ok := err.(*Trap); !ok || tr.Kind != "segv" {
		t.Fatalf("write past the slack = %v, want a segv trap", err)
	}
}

// Out-of-arena accesses trap with the same kind and message through every
// entry point, and the fast paths refuse them without counting.
func TestArenaTrapMessages(t *testing.T) {
	m := New()
	b := m.Alloc(8, RegHeap, "b")
	past := uint32(m.Size())
	cases := []struct {
		addr uint32
		msg  string
	}{
		{0, "access to address 0x0 in the null page"},
		{nullPage - 1, "access to address 0x3f in the null page"},
		{past, fmt.Sprintf("access to unmapped address 0x%x", past)},
		{past - 2, fmt.Sprintf("access to unmapped address 0x%x", past-2)},
	}
	for _, c := range cases {
		_, rerr := m.ReadInt(c.addr, 4, true)
		_, werr := m.ReadWord(c.addr)
		_, ferr := m.ReadFloat(c.addr, 4)
		for _, err := range []error{rerr, werr, ferr, m.WriteInt(c.addr, 4, 1), m.WriteWord(c.addr, 1)} {
			tr, ok := err.(*Trap)
			if !ok || tr.Kind != "segv" || tr.Msg != c.msg {
				t.Errorf("access at 0x%x: %v, want segv %q", c.addr, err, c.msg)
			}
		}
		if _, ok := m.LoadInt(c.addr, 4, true); ok {
			t.Errorf("LoadInt accepted 0x%x", c.addr)
		}
		if m.StoreInt(c.addr, 4, 1) {
			t.Errorf("StoreInt accepted 0x%x", c.addr)
		}
	}
	if m.Loads != 0 || m.Stores != 0 {
		t.Errorf("trapping accesses counted: %d loads, %d stores", m.Loads, m.Stores)
	}
	// A mapped access of a width no C integer has traps after counting.
	_, err := m.ReadInt(b.Addr, 3, false)
	if tr, ok := err.(*Trap); !ok || tr.Kind != "access" || tr.Msg != "bad integer size 3" {
		t.Errorf("3-byte read: %v", err)
	}
	if m.Loads != 1 {
		t.Errorf("loads = %d, want the bad-size read counted", m.Loads)
	}
}

// A frame popped and pushed again reads all zero.
func TestRepushedFrameIsZeroed(t *testing.T) {
	m := New()
	m.InitStack(4096)
	f, err := m.PushFrame(64, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetBytes(f.Addr, 0xCD, f.Size); err != nil {
		t.Fatal(err)
	}
	m.PopFrame()
	g, err := m.PushFrame(64, "g")
	if err != nil {
		t.Fatal(err)
	}
	if g.Addr != f.Addr {
		t.Fatalf("frame not reused: 0x%x vs 0x%x", g.Addr, f.Addr)
	}
	bs, _ := m.Bytes(g.Addr, g.Size)
	for i, c := range bs {
		if c != 0 {
			t.Fatalf("byte %d of the re-pushed frame is 0x%x, want 0", i, c)
		}
	}
}
