package rtti

import (
	"testing"

	"gocured/internal/ctypes"
)

// mkHierarchy builds Figure <- Circle <- (ColoredCircle) plus Square.
func mkHierarchy() (h *Hierarchy, fig, cir, colored, square *ctypes.Type) {
	figSU := ctypes.NewStruct("Figure", false, 0)
	area := func() *ctypes.Type {
		return ctypes.PointerTo(ctypes.FuncType(ctypes.FloatType(8),
			[]*ctypes.Type{ctypes.PointerTo(ctypes.StructType(figSU))}, nil, false))
	}
	figSU.Define([]*ctypes.Field{{Name: "area", Type: area()}})

	cirSU := ctypes.NewStruct("Circle", false, 1)
	cirSU.Define([]*ctypes.Field{
		{Name: "area", Type: area()},
		{Name: "radius", Type: ctypes.IntT()},
	})
	colSU := ctypes.NewStruct("ColoredCircle", false, 2)
	colSU.Define([]*ctypes.Field{
		{Name: "area", Type: area()},
		{Name: "radius", Type: ctypes.IntT()},
		{Name: "color", Type: ctypes.IntT()},
	})
	sqSU := ctypes.NewStruct("Square", false, 3)
	sqSU.Define([]*ctypes.Field{
		{Name: "area", Type: area()},
		{Name: "side", Type: ctypes.FloatType(8)},
	})
	h = NewHierarchy()
	fig = ctypes.StructType(figSU)
	cir = ctypes.StructType(cirSU)
	colored = ctypes.StructType(colSU)
	square = ctypes.StructType(sqSU)
	for _, t := range []*ctypes.Type{fig, cir, colored, square} {
		h.Of(t)
	}
	return
}

func TestIsSubtypeChain(t *testing.T) {
	h, fig, cir, colored, square := mkHierarchy()
	nf, nc, ncc, ns := h.Of(fig), h.Of(cir), h.Of(colored), h.Of(square)

	cases := []struct {
		a, b *Node
		want bool
	}{
		{nc, nf, true},   // Circle <= Figure
		{ncc, nf, true},  // ColoredCircle <= Figure
		{ncc, nc, true},  // ColoredCircle <= Circle
		{ns, nf, true},   // Square <= Figure
		{nf, nc, false},  // Figure is not <= Circle
		{nc, ncc, false}, // Circle is not <= ColoredCircle
		{nc, ns, false},  // Circle vs Square unrelated (int vs double)
		{ns, nc, false},  // Square not <= Circle
		{nf, nf, true},   // reflexive
		{nc, nc, true},   // reflexive
	}
	for _, c := range cases {
		if got := h.IsSubtype(c.a, c.b); got != c.want {
			t.Errorf("IsSubtype(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestVoidIsTop(t *testing.T) {
	h, fig, cir, _, _ := mkHierarchy()
	for _, n := range []*Node{h.Of(fig), h.Of(cir), h.Of(ctypes.IntT())} {
		if !h.IsSubtype(n, h.VoidNode) {
			t.Errorf("%s must be a subtype of void", n)
		}
	}
	if h.IsSubtype(h.VoidNode, h.Of(fig)) {
		t.Error("void must not be a subtype of Figure")
	}
}

func TestHasStrictSubtypes(t *testing.T) {
	h, fig, cir, colored, square := mkHierarchy()
	var m ctypes.Matcher
	if !h.HasStrictSubtypes(h.Of(fig), &m) {
		t.Error("Figure has subtypes (Circle, Square)")
	}
	if !h.HasStrictSubtypes(h.Of(cir), &m) {
		t.Error("Circle has a subtype (ColoredCircle)")
	}
	if h.HasStrictSubtypes(h.Of(colored), &m) {
		t.Error("ColoredCircle has no subtypes")
	}
	if h.HasStrictSubtypes(h.Of(square), &m) {
		t.Error("Square has no subtypes")
	}
	if !h.HasStrictSubtypes(h.VoidNode, &m) {
		t.Error("void has strict subtypes once anything is registered")
	}
	// Scalars never count as having subtypes (§3.2 inference rule).
	if h.HasStrictSubtypes(h.Of(ctypes.IntT()), &m) {
		t.Error("int must not report subtypes")
	}
}

func TestOfCanonicalizes(t *testing.T) {
	h := NewHierarchy()
	a := h.Of(ctypes.PointerTo(ctypes.CharType()))
	b := h.Of(ctypes.PointerTo(ctypes.CharType()))
	if a != b {
		t.Error("structurally equal types must share one node")
	}
	if h.Of(ctypes.IntT()) == h.Of(ctypes.UIntT()) {
		t.Error("int and unsigned int are distinct nodes")
	}
	if h.Lookup(ctypes.CharType()) != nil {
		t.Error("Lookup must not register")
	}
	h.Of(ctypes.CharType())
	if h.Lookup(ctypes.CharType()) == nil {
		t.Error("Lookup must find a registered type")
	}
}

func TestSubtypeCaching(t *testing.T) {
	h, fig, cir, _, _ := mkHierarchy()
	nf, nc := h.Of(fig), h.Of(cir)
	// Repeated queries must be consistent (exercise the cache).
	for i := 0; i < 3; i++ {
		if !h.IsSubtype(nc, nf) || h.IsSubtype(nf, nc) {
			t.Fatal("cache corrupted subtype relation")
		}
	}
}
