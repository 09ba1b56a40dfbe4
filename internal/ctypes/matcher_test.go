package ctypes

import (
	"fmt"
	"sync"
	"testing"
)

// TestMatcherReuse runs the three comparisons on one held Matcher, whose
// buffers carry over between calls: each result must equal a fresh
// Matcher's, and a returned pairs slice must keep its contents after
// later comparisons.
func TestMatcherReuse(t *testing.T) {
	fig, cir := figureCircle()
	list := func(name string) *Type {
		su := NewStruct(name, false, 0)
		su.Define([]*Field{
			{Name: "val", Type: IntT()},
			{Name: "next", Type: PointerTo(StructType(su))},
		})
		return StructType(su)
	}
	la, lb := list("A"), list("B")
	cases := []struct {
		name string
		run  func(m *Matcher) (bool, [][2]*Type)
	}{
		{"Prefix(Circle, Figure)", func(m *Matcher) (bool, [][2]*Type) { return m.Prefix(cir, fig) }},
		{"Prefix(Figure, Circle)", func(m *Matcher) (bool, [][2]*Type) { return m.Prefix(fig, cir) }},
		{"PhysEqual(list A, list B)", func(m *Matcher) (bool, [][2]*Type) { return m.PhysEqual(la, lb) }},
		{"Tile(int[2], int)", func(m *Matcher) (bool, [][2]*Type) { return m.Tile(ArrayOf(IntT(), 2), IntT()) }},
		{"Tile(Circle, Figure)", func(m *Matcher) (bool, [][2]*Type) { return m.Tile(cir, fig) }},
	}
	var held Matcher
	var kept [][2]*Type
	for round := 0; round < 3; round++ {
		for _, c := range cases {
			ok, pairs := c.run(&held)
			wantOK, wantPairs := c.run(new(Matcher))
			if ok != wantOK || fmt.Sprint(pairs) != fmt.Sprint(wantPairs) {
				t.Errorf("round %d %s = %v %v on a held Matcher, %v %v on a fresh one", round, c.name, ok, pairs, wantOK, wantPairs)
			}
			if kept == nil && len(pairs) > 0 {
				kept = pairs
			}
		}
	}
	if ok, pairs := new(Matcher).Prefix(cir, fig); !ok || fmt.Sprint(kept) != fmt.Sprint(pairs) {
		t.Errorf("pairs returned first read %v after later comparisons, want %v", kept, pairs)
	}
}

// TestPooledMatcherConcurrent runs the package-level comparisons, which
// share pooled Matchers, from several goroutines at once; each result must
// agree with a serial run.
func TestPooledMatcherConcurrent(t *testing.T) {
	fig, cir := figureCircle()
	run := func() string {
		ok1, p1 := Prefix(cir, fig)
		ok2, p2 := PhysEqual(ArrayOf(cir, 2), ArrayOf(cir, 2))
		ok3, p3 := Tile(ArrayOf(IntT(), 2), IntT())
		ok4, _ := Tile(cir, fig)
		return fmt.Sprint(ok1, p1, ok2, len(p2), ok3, len(p3), ok4)
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := run(); got != want {
					t.Errorf("concurrent comparison = %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
