package ctypes

import (
	"testing"
	"testing/quick"
)

func TestBasicSizes(t *testing.T) {
	cases := []struct {
		ty   *Type
		size int
		al   int
	}{
		{VoidType(), 0, 1},
		{CharType(), 1, 1},
		{IntType(2, true), 2, 2},
		{IntT(), 4, 4},
		{UIntT(), 4, 4},
		{FloatType(4), 4, 4},
		{FloatType(8), 8, 8},
		{PointerTo(IntT()), 4, 4},
		{ArrayOf(IntT(), 10), 40, 4},
		{ArrayOf(CharType(), 7), 7, 1},
	}
	for _, c := range cases {
		if got := Sizeof(c.ty); got != c.size {
			t.Errorf("Sizeof(%s) = %d, want %d", c.ty, got, c.size)
		}
		if got := Alignof(c.ty); got != c.al {
			t.Errorf("Alignof(%s) = %d, want %d", c.ty, got, c.al)
		}
	}
}

func TestStructLayoutPadding(t *testing.T) {
	// struct { char c; int i; short s; } => c@0, i@4, s@8, size 12
	su := NewStruct("s", false, 0)
	su.Define([]*Field{
		{Name: "c", Type: CharType()},
		{Name: "i", Type: IntT()},
		{Name: "s", Type: IntType(2, true)},
	})
	ty := StructType(su)
	if got := Sizeof(ty); got != 12 {
		t.Errorf("size = %d, want 12", got)
	}
	wantOff := []int{0, 4, 8}
	for i, f := range su.Fields {
		if f.Offset != wantOff[i] {
			t.Errorf("field %s offset = %d, want %d", f.Name, f.Offset, wantOff[i])
		}
	}
	if got := Alignof(ty); got != 4 {
		t.Errorf("align = %d, want 4", got)
	}
}

func TestUnionLayout(t *testing.T) {
	su := NewStruct("u", true, 0)
	su.Define([]*Field{
		{Name: "d", Type: FloatType(8)},
		{Name: "c", Type: CharType()},
	})
	ty := StructType(su)
	if got := Sizeof(ty); got != 8 {
		t.Errorf("union size = %d, want 8", got)
	}
	for _, f := range su.Fields {
		if f.Offset != 0 {
			t.Errorf("union field %s offset = %d, want 0", f.Name, f.Offset)
		}
	}
}

// figureCircle builds the paper's Figure/Circle example:
//
//	struct Figure { double (*area)(struct Figure*); };
//	struct Circle { double (*area)(struct Figure*); int radius; };
func figureCircle() (fig, cir *Type) {
	figSU := NewStruct("Figure", false, 0)
	fig = StructType(figSU)
	areaTy := FuncType(FloatType(8), []*Type{PointerTo(StructType(figSU))}, nil, false)
	figSU.Define([]*Field{{Name: "area", Type: PointerTo(areaTy)}})

	cirSU := NewStruct("Circle", false, 0)
	areaTy2 := FuncType(FloatType(8), []*Type{PointerTo(StructType(figSU))}, nil, false)
	cirSU.Define([]*Field{
		{Name: "area", Type: PointerTo(areaTy2)},
		{Name: "radius", Type: IntT()},
	})
	cir = StructType(cirSU)
	return fig, cir
}

func TestPhysicalSubtypingUpcast(t *testing.T) {
	fig, cir := figureCircle()
	if ok, pairs := Prefix(cir, fig); !ok {
		t.Fatal("Circle should be a physical subtype of Figure")
	} else if len(pairs) == 0 {
		t.Error("expected matched function-pointer pair")
	}
	if ok, _ := Prefix(fig, cir); ok {
		t.Error("Figure must NOT be a physical subtype of Circle")
	}
}

func TestVoidIsTopOfHierarchy(t *testing.T) {
	fig, cir := figureCircle()
	for _, ty := range []*Type{fig, cir, IntT(), PointerTo(CharType()), FloatType(8)} {
		if ok, _ := Prefix(ty, VoidType()); !ok {
			t.Errorf("%s should be a physical subtype of void", ty)
		}
	}
	if ok, _ := Prefix(VoidType(), IntT()); ok {
		t.Error("void must not be a physical subtype of int")
	}
}

func TestPhysEqualArrayUnrolling(t *testing.T) {
	// int[6] ~ struct { int[2]; int[4]; }
	su := NewStruct("", false, 0)
	su.Define([]*Field{
		{Name: "a", Type: ArrayOf(IntT(), 2)},
		{Name: "b", Type: ArrayOf(IntT(), 4)},
	})
	if ok, _ := PhysEqual(ArrayOf(IntT(), 6), StructType(su)); !ok {
		t.Error("int[6] should be physically equal to struct{int[2]; int[4];}")
	}
	// t ~ t[1]
	if ok, _ := PhysEqual(IntT(), ArrayOf(IntT(), 1)); !ok {
		t.Error("int should be physically equal to int[1]")
	}
}

func TestStructAssociativity(t *testing.T) {
	// struct { t1; struct { t2; t3; }; } ~ struct { struct { t1; t2; }; t3; }
	mk := func(inner, outer []string) *Type {
		tyOf := func(s string) *Type {
			if s == "p" {
				return PointerTo(CharType())
			}
			return IntT()
		}
		in := NewStruct("", false, 0)
		var inf []*Field
		for i, s := range inner {
			inf = append(inf, &Field{Name: string(rune('a' + i)), Type: tyOf(s)})
		}
		in.Define(inf)
		out := NewStruct("", false, 0)
		var outf []*Field
		for i, s := range outer {
			outf = append(outf, &Field{Name: string(rune('x' + i)), Type: tyOf(s)})
		}
		outf = append(outf, &Field{Name: "nested", Type: StructType(in)})
		out.Define(outf)
		return StructType(out)
	}
	a := mk([]string{"i", "p"}, []string{"i"}) // struct{int; struct{int; char*}}
	b := mk([]string{"p"}, []string{"i", "i"}) // struct{int; int; struct{char*}}
	if ok, _ := PhysEqual(a, b); !ok {
		t.Errorf("associativity: %s should be physically equal to %s", a, b)
	}
}

func TestNoDoubleOverFuncPtr(t *testing.T) {
	// The paper's soundness example: Circle[] viewed as Figure[] would put
	// a double where a function pointer lives. Tile must reject it.
	fig, cir := figureCircle()
	if ok, _ := Tile(cir, fig); ok {
		t.Error("Tile(Circle, Figure) must fail: strides misalign")
	}
	// But reshaping arrays of the same scalar tiles fine: int[2] vs int.
	if ok, _ := Tile(ArrayOf(IntT(), 2), IntT()); !ok {
		t.Error("Tile(int[2], int) should succeed")
	}
	// And a struct of two ints tiles against int.
	su := NewStruct("", false, 0)
	su.Define([]*Field{{Name: "x", Type: IntT()}, {Name: "y", Type: IntT()}})
	if ok, _ := Tile(StructType(su), IntT()); !ok {
		t.Error("Tile(struct{int;int}, int) should succeed")
	}
	// double does not tile against int (atom kinds differ).
	if ok, _ := Tile(FloatType(8), IntT()); ok {
		t.Error("Tile(double, int) must fail")
	}
}

func TestRecursiveStructPhysEq(t *testing.T) {
	// Two structurally identical list types must be physically equal
	// (coinductive comparison must terminate).
	mkList := func(name string) *Type {
		su := NewStruct(name, false, 0)
		su.Define([]*Field{
			{Name: "val", Type: IntT()},
			{Name: "next", Type: PointerTo(StructType(su))},
		})
		return StructType(su)
	}
	a, b := mkList("A"), mkList("B")
	if ok, _ := PhysEqual(a, b); !ok {
		t.Error("isomorphic recursive lists should be physically equal")
	}
	// And a list with a float payload is not equal.
	su := NewStruct("C", false, 0)
	su.Define([]*Field{
		{Name: "val", Type: FloatType(4)},
		{Name: "next", Type: PointerTo(StructType(su))},
	})
	if ok, _ := PhysEqual(a, StructType(su)); ok {
		t.Error("lists with different payload kinds must differ")
	}
}

func TestUnionOpaque(t *testing.T) {
	u1 := NewStruct("u1", true, 0)
	u1.Define([]*Field{{Name: "i", Type: IntT()}, {Name: "f", Type: FloatType(4)}})
	u2 := NewStruct("u2", true, 0)
	u2.Define([]*Field{{Name: "i", Type: IntT()}, {Name: "f", Type: FloatType(4)}})
	if ok, _ := PhysEqual(StructType(u1), StructType(u2)); ok {
		t.Error("distinct unions must be opaque to physical equality")
	}
	if ok, _ := PhysEqual(StructType(u1), StructType(u1)); !ok {
		t.Error("a union must be physically equal to itself")
	}
}

func TestEqualStructural(t *testing.T) {
	if !Equal(PointerTo(IntT()), PointerTo(IntT())) {
		t.Error("int* == int*")
	}
	if Equal(PointerTo(IntT()), PointerTo(UIntT())) {
		t.Error("int* != unsigned int*")
	}
	if !Equal(ArrayOf(CharType(), 3), ArrayOf(CharType(), 3)) {
		t.Error("char[3] == char[3]")
	}
	if Equal(ArrayOf(CharType(), 3), ArrayOf(CharType(), 4)) {
		t.Error("char[3] != char[4]")
	}
}

// TestDecaySharesNode checks what lets the inference give an array and its
// decayed pointer one qualifier node: the decayed occurrence is cached per
// array, links back to it and carries its annotation.
func TestDecaySharesNode(t *testing.T) {
	arr := ArrayOf(IntT(), 8)
	arr.Ann = AnnSeq
	d := arr.Decay()
	if d.Kind != Ptr || d.Elem != arr.Elem || d.DecayOf != arr || d.Ann != AnnSeq {
		t.Errorf("decayed type = %s (decay of %p, ann %d), want int* decaying %p with ann %d", d, d.DecayOf, d.Ann, arr, AnnSeq)
	}
	if arr.Decay() != d {
		t.Error("Decay of one array occurrence returned two pointer occurrences")
	}
}

// Property: Prefix is reflexive for pointer-free types, and Prefix(a, b)
// implies Sizeof(a) >= Sizeof(b) for complete types.
func TestPrefixProperties(t *testing.T) {
	gens := []func(int) *Type{
		func(n int) *Type { return IntType([]int{1, 2, 4}[n%3], n%2 == 0) },
		func(n int) *Type { return FloatType([]int{4, 8}[n%2]) },
		func(n int) *Type { return ArrayOf(IntT(), n%5+1) },
		func(n int) *Type {
			su := NewStruct("", false, 0)
			su.Define([]*Field{
				{Name: "a", Type: IntType([]int{1, 2, 4}[n%3], true)},
				{Name: "b", Type: FloatType(8)},
			})
			return StructType(su)
		},
	}
	f := func(sel uint8, n uint8) bool {
		ty := gens[int(sel)%len(gens)](int(n))
		ok, _ := Prefix(ty, ty)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(sel1, sel2, n1, n2 uint8) bool {
		a := gens[int(sel1)%len(gens)](int(n1))
		b := gens[int(sel2)%len(gens)](int(n2))
		ok, _ := Prefix(a, b)
		if !ok {
			return true
		}
		return Sizeof(a) >= Sizeof(b)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Property: PhysEqual is symmetric.
func TestPhysEqualSymmetric(t *testing.T) {
	fig, cir := figureCircle()
	types := []*Type{IntT(), CharType(), FloatType(8), PointerTo(IntT()),
		ArrayOf(IntT(), 3), fig, cir, VoidType()}
	for _, a := range types {
		for _, b := range types {
			ab, _ := PhysEqual(a, b)
			ba, _ := PhysEqual(b, a)
			if ab != ba {
				t.Errorf("PhysEqual(%s,%s)=%v but PhysEqual(%s,%s)=%v", a, b, ab, b, a, ba)
			}
		}
	}
}
