package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func rt(id string) ReqTrace {
	return ReqTrace{ID: id, Name: id + ".c", Spans: []Span{{Name: "request"}}}
}

func TestNewIDShape(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := newParentID()
		if len(id) != 16 || !isLowerHex(id) || id == zeroParentID {
			t.Fatalf("newParentID() = %q, not a non-zero 16-hex parent-id", id)
		}
		if ValidID(id) {
			t.Fatalf("ValidID accepts the parent-id %q as a trace ID", id)
		}
		if seen[id] {
			t.Fatalf("newParentID() repeated %q", id)
		}
		seen[id] = true
	}
	for _, bad := range []string{"", "short", "0123456789abcdef0123456789abcdeF", "0123456789abcdef0123456789abcdefg", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true", bad)
		}
	}
}

func TestBufferAddGetEvict(t *testing.T) {
	b := NewBuffer(3)
	for _, id := range []string{"aaaaaaaaaaaaaaa1", "aaaaaaaaaaaaaaa2", "aaaaaaaaaaaaaaa3"} {
		b.Add(rt(id))
	}
	if _, ok := b.Get("aaaaaaaaaaaaaaa1"); !ok {
		t.Fatal("trace 1 missing before eviction")
	}
	b.Add(rt("aaaaaaaaaaaaaaa4")) // evicts 1
	if _, ok := b.Get("aaaaaaaaaaaaaaa1"); ok {
		t.Error("oldest trace survived eviction")
	}
	for _, id := range []string{"aaaaaaaaaaaaaaa2", "aaaaaaaaaaaaaaa3", "aaaaaaaaaaaaaaa4"} {
		if got, ok := b.Get(id); !ok || len(got) != 1 || got[0].ID != id {
			t.Errorf("Get(%s) = %+v, %v", id, got, ok)
		}
	}
	st := b.Stats()
	if st.Added != 4 || st.Evicted != 1 || st.Dropped != 0 || st.Live != 3 || st.Cap != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBufferRecentNewestFirst(t *testing.T) {
	b := NewBuffer(3)
	for i := 1; i <= 5; i++ { // 1,2 evicted; live = 3,4,5
		b.Add(rt(fmt.Sprintf("%016d", i)))
	}
	got := b.Recent(0)
	if len(got) != 3 || got[0].ID != fmt.Sprintf("%016d", 5) ||
		got[1].ID != fmt.Sprintf("%016d", 4) || got[2].ID != fmt.Sprintf("%016d", 3) {
		t.Errorf("Recent = %v", got)
	}
	if got := b.Recent(1); len(got) != 1 || got[0].ID != fmt.Sprintf("%016d", 5) {
		t.Errorf("Recent(1) = %v", got)
	}
}

func TestBufferDropsUnqueryable(t *testing.T) {
	b := NewBuffer(2)
	b.Add(ReqTrace{Name: "no-id.c", Spans: []Span{{Name: "request"}}})
	b.Add(ReqTrace{ID: "aaaaaaaaaaaaaaaa"}) // no spans
	if st := b.Stats(); st.Dropped != 2 || st.Added != 0 || st.Live != 0 {
		t.Errorf("stats = %+v, want 2 dropped", st)
	}
}

// TestBufferDuplicateIDKeepsEach adds two requests that share one
// upstream trace-id: Get returns both, oldest first, and each counts
// against the capacity.
func TestBufferDuplicateIDKeepsEach(t *testing.T) {
	b := NewBuffer(2)
	b.Add(rt("aaaaaaaaaaaaaaa1"))
	upd := rt("aaaaaaaaaaaaaaa1")
	upd.Name, upd.DurMS = "b.c", 42
	b.Add(upd)
	got, ok := b.Get("aaaaaaaaaaaaaaa1")
	if !ok || len(got) != 2 || got[0].DurMS != 0 || got[1].Name != "b.c" || got[1].DurMS != 42 {
		t.Errorf("Get = %+v, %v; want both requests, oldest first", got, ok)
	}
	if st := b.Stats(); st.Live != 2 || st.Evicted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestBufferSharedIDEvictsPerRequest fills a buffer of two with requests
// a, a, b: the first a is evicted alone, and the second stays reachable.
func TestBufferSharedIDEvictsPerRequest(t *testing.T) {
	b := NewBuffer(2)
	first, second := rt("a"), rt("a")
	first.Name, second.Name = "first.c", "second.c"
	b.Add(first)
	b.Add(second)
	b.Add(rt("b"))
	got, ok := b.Get("a")
	if !ok || len(got) != 1 || got[0].Name != "second.c" {
		t.Errorf("Get(a) = %+v, %v; want only the second request", got, ok)
	}
	if st := b.Stats(); st.Added != 3 || st.Evicted != 1 || st.Live != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestBufferReaddedIDBecomesNewest adds a, b, c, a at capacity 3: the
// second a is the newest entry and evicts the first, so adding d evicts
// b, not the fresh a.
func TestBufferReaddedIDBecomesNewest(t *testing.T) {
	b := NewBuffer(3)
	for _, id := range []string{"a", "b", "c", "a"} {
		b.Add(rt(id))
	}
	ids := func() string {
		var out []string
		for _, t := range b.Recent(0) {
			out = append(out, t.ID)
		}
		return strings.Join(out, ",")
	}
	if got := ids(); got != "a,c,b" {
		t.Fatalf("Recent after a,b,c,a = %s, want a,c,b", got)
	}
	b.Add(rt("d"))
	if got := ids(); got != "d,a,c" {
		t.Fatalf("Recent after adding d = %s, want d,a,c", got)
	}
	if got, ok := b.Get("a"); !ok || len(got) != 1 {
		t.Errorf("Get(a) = %+v, %v; want the re-added a alone", got, ok)
	}
	if _, ok := b.Get("b"); ok {
		t.Error("b, the oldest entry, survived eviction")
	}
	if st := b.Stats(); st.Added != 5 || st.Evicted != 2 || st.Live != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBufferConcurrent(t *testing.T) {
	b := NewBuffer(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("%08d%08d", g, i)
				b.Add(rt(id))
				b.Get(id)
				b.Recent(4)
				b.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := b.Stats(); st.Added != 1600 || st.Live != 16 {
		t.Errorf("stats = %+v", st)
	}
}
