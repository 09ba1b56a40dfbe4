package store

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gocured/internal/cil"
	"gocured/internal/corpus"
	"gocured/internal/cparse"
	"gocured/internal/diag"
	"gocured/internal/infer"
	"gocured/internal/sema"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t, t.TempDir())
	key := sha256.Sum256([]byte("k1"))
	payload := []byte("hello chunks")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if _, ok := s.Get(sha256.Sum256([]byte("absent"))); ok {
		t.Fatal("Get of absent key hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Chunks != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes != int64(headerSize+len(payload)) {
		t.Fatalf("bytes = %d, want %d", st.Bytes, headerSize+len(payload))
	}
}

func TestReopenScansExistingChunks(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	key := sha256.Sum256([]byte("persist"))
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if st := s2.Stats(); st.Chunks != 1 || st.Bytes == 0 {
		t.Fatalf("reopened stats %+v, want 1 chunk scanned", st)
	}
	if got, ok := s2.Get(key); !ok || string(got) != "payload" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
}

// corruptChunk applies f to the single chunk file under dir and rewrites it.
func corruptChunk(t *testing.T, s *Store, key [sha256.Size]byte, f func([]byte) []byte) {
	t.Helper()
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o666); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptChunkIsDroppedNotServed(t *testing.T) {
	cases := []struct {
		name string
		f    func([]byte) []byte
	}{
		{"bit-flip payload", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
		{"bit-flip digest", func(b []byte) []byte { b[10] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated to header", func(b []byte) []byte { return b[:headerSize][:5] }},
		{"wrong magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir())
			key := sha256.Sum256([]byte(tc.name))
			if err := s.Put(key, []byte("precious artifact payload")); err != nil {
				t.Fatal(err)
			}
			corruptChunk(t, s, key, tc.f)
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt chunk served: %q", got)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Fatal("corrupt chunk not removed from disk")
			}
			st := s.Stats()
			if st.CorruptDropped != 1 || st.Chunks != 0 {
				t.Fatalf("stats %+v, want 1 corrupt dropped, 0 chunks", st)
			}
			// The store recovers: a rewrite serves again.
			if err := s.Put(key, []byte("rewritten")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || string(got) != "rewritten" {
				t.Fatalf("rewrite Get = %q, %v", got, ok)
			}
		})
	}
}

func TestPutIsIdempotent(t *testing.T) {
	s := open(t, t.TempDir())
	key := sha256.Sum256([]byte("idem"))
	for i := 0; i < 3; i++ {
		if err := s.Put(key, []byte("same")); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Writes != 1 || st.Chunks != 1 {
		t.Fatalf("stats %+v, want a single write", st)
	}
}

func lower(t testing.TB, name, src string) (*cil.Program, *diag.List) {
	t.Helper()
	var d diag.List
	file := cparse.Parse(name, src, &d)
	unit := sema.Check(file, &d)
	prog := cil.Lower(unit, &d)
	if d.HasErrors() {
		t.Fatalf("%s: frontend errors:\n%v", name, d.Err())
	}
	return prog, &d
}

// TestArtifactsWarmRestart drives the real inference through an on-disk
// source across two store handles (two "processes"): the second run loads
// every storable summary instead of re-collecting.
func TestArtifactsWarmRestart(t *testing.T) {
	dir := t.TempDir()
	p := corpus.All()[0]
	opts := infer.Options{TrustBadCasts: p.TrustBadCasts}

	src := NewArtifacts(open(t, dir), "v-test", "go-test").ForOptions(opts)
	prog1, d1 := lower(t, p.Name, p.Source)
	_, cold := infer.InferIncremental(prog1, opts, d1, src)
	if cold.Recured != cold.Funcs || cold.Loaded != 0 {
		t.Fatalf("cold stats %+v", cold)
	}

	src2 := NewArtifacts(open(t, dir), "v-test", "go-test").ForOptions(opts)
	prog2, d2 := lower(t, p.Name, p.Source)
	_, warm := infer.InferIncremental(prog2, opts, d2, src2)
	if warm.Loaded != warm.Funcs-warm.Unstorable {
		t.Fatalf("warm stats %+v, want all storable functions loaded", warm)
	}
}

// TestArtifactsKeySchema asserts the invalidation axes: gocured version, Go
// version, and inference options each address disjoint chunks.
func TestArtifactsKeySchema(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	p := corpus.All()[0]
	opts := infer.Options{TrustBadCasts: p.TrustBadCasts}

	prog, d := lower(t, p.Name, p.Source)
	_, cold := infer.InferIncremental(prog, opts, d, NewArtifacts(s, "v1", "go1").ForOptions(opts))

	for _, tc := range []struct {
		name string
		src  infer.SummarySource
	}{
		{"gocured version changed", NewArtifacts(s, "v2", "go1").ForOptions(opts)},
		{"go version changed", NewArtifacts(s, "v1", "go2").ForOptions(opts)},
		{"options changed", NewArtifacts(s, "v1", "go1").ForOptions(infer.Options{NoRTTI: true})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, d := lower(t, p.Name, p.Source)
			_, st := infer.InferIncremental(prog, opts, d, tc.src)
			if st.Loaded != 0 || st.Recured != cold.Funcs {
				t.Fatalf("stats %+v: stale chunks served across a version boundary", st)
			}
		})
	}
}

// TestArtifactsCorruptionRecure corrupts every chunk on disk between two
// inference runs: the second run must detect each bad chunk, recompile the
// functions, rewrite the chunks, and still serve a third run warm.
func TestArtifactsCorruptionRecure(t *testing.T) {
	dir := t.TempDir()
	p := corpus.All()[0]
	opts := infer.Options{TrustBadCasts: p.TrustBadCasts}
	arts := NewArtifacts(open(t, dir), "v-test", "go-test")
	src := arts.ForOptions(opts)

	prog1, d1 := lower(t, p.Name, p.Source)
	res1, _ := infer.InferIncremental(prog1, opts, d1, src)
	want := res1.ComputeStats()

	// Flip one payload byte in every chunk file.
	var corrupted int
	err := filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || strings.HasPrefix(info.Name(), "tmp-") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0x80
		corrupted++
		return os.WriteFile(path, data, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no chunks written by cold run")
	}

	prog2, d2 := lower(t, p.Name, p.Source)
	res2, st2 := infer.InferIncremental(prog2, opts, d2, src)
	if st2.Loaded != 0 || st2.Recured != st2.Funcs {
		t.Fatalf("corrupt-store stats %+v, want everything recured", st2)
	}
	if got := res2.ComputeStats(); got != want {
		t.Fatalf("recompile after corruption diverged: %+v vs %+v", got, want)
	}
	if cs := arts.Store().Stats(); cs.CorruptDropped != int64(corrupted) {
		t.Fatalf("CorruptDropped = %d, want %d", cs.CorruptDropped, corrupted)
	}

	prog3, d3 := lower(t, p.Name, p.Source)
	_, st3 := infer.InferIncremental(prog3, opts, d3, src)
	if st3.Loaded != st3.Funcs-st3.Unstorable {
		t.Fatalf("post-recovery stats %+v, want warm", st3)
	}
}

// savedSum is one Save seen by captureSource.
type savedSum struct {
	sum         *infer.FuncSummary
	fn          string
	body, decls [sha256.Size]byte
}

// captureSource passes loads and saves through to src (when non-nil),
// records every save, and drops saves when noSave is set.
type captureSource struct {
	src    infer.SummarySource
	noSave bool
	saves  []savedSum
}

func (c *captureSource) Load(fn string, body, decls [sha256.Size]byte) (*infer.FuncSummary, bool) {
	if c.src == nil {
		return nil, false
	}
	return c.src.Load(fn, body, decls)
}

func (c *captureSource) Save(sum *infer.FuncSummary, fn string, body, decls [sha256.Size]byte) {
	c.saves = append(c.saves, savedSum{sum, fn, body, decls})
	if c.src != nil && !c.noSave {
		c.src.Save(sum, fn, body, decls)
	}
}

// TestArtifactsUnreadablePayload stores a well-formed chunk whose payload
// is not a summary under a real function's key: the chunk's own hash
// verifies, so only the decoder can catch it. Inference must drop the
// chunk and re-collect that one function, and the result must not change.
func TestArtifactsUnreadablePayload(t *testing.T) {
	p := corpus.All()[0]
	opts := infer.Options{TrustBadCasts: p.TrustBadCasts}
	prog0, d0 := lower(t, p.Name, p.Source)
	want := infer.Infer(prog0, opts, d0).ComputeStats()

	for _, tc := range []struct {
		name string
		f    func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arts := NewArtifacts(open(t, t.TempDir()), "v-test", "go-test")
			src := arts.ForOptions(opts)
			cold := &captureSource{src: src}
			prog1, d1 := lower(t, p.Name, p.Source)
			infer.InferIncremental(prog1, opts, d1, cold)
			victim := cold.saves[len(cold.saves)-1]

			key := src.(*summarySource).key(victim.fn, victim.body, victim.decls)
			path := arts.Store().path(key)
			payload := tc.f(appendSummary(nil, victim.sum))
			if _, err := decodeSummary(payload); err == nil {
				t.Fatal("the damaged payload decodes")
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := arts.Store().Put(key, payload); err != nil {
				t.Fatal(err)
			}

			warm := &captureSource{src: src, noSave: true}
			prog2, d2 := lower(t, p.Name, p.Source)
			res, st := infer.InferIncremental(prog2, opts, d2, warm)
			if st.Recured != 1 || st.Loaded != st.Funcs-1 {
				t.Fatalf("stats %+v, want only the damaged function re-collected", st)
			}
			if len(warm.saves) != 1 || warm.saves[0].fn != victim.fn {
				t.Fatalf("re-collected %d functions, want %s alone", len(warm.saves), victim.fn)
			}
			if cs := arts.Store().Stats(); cs.CorruptDropped != 1 {
				t.Fatalf("CorruptDropped = %d, want 1", cs.CorruptDropped)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("the undecodable chunk is still on disk")
			}
			if got := res.ComputeStats(); got != want {
				t.Fatalf("stats %+v after the drop, want %+v", got, want)
			}
		})
	}
}

// ownSource serves one summary, to the function it names.
type ownSource struct{ sum *infer.FuncSummary }

func (s ownSource) Load(fn string, _, _ [sha256.Size]byte) (*infer.FuncSummary, bool) {
	return s.sum, fn == s.sum.Func
}

func (ownSource) Save(*infer.FuncSummary, string, [sha256.Size]byte, [sha256.Size]byte) {}

// FuzzSummaryCodec checks the chunk payload codec. Every summary recorded
// from three corpus programs must survive encode then decode unchanged,
// and these encodings are the seed corpus. Decoding arbitrary bytes must
// never panic; a payload that decodes must re-encode to itself, and when
// inference is served it and its replay validation rejects it, the result
// must be that of a plain Infer.
func FuzzSummaryCodec(f *testing.F) {
	progs := corpus.All()[:3]
	for _, p := range progs {
		rec := &captureSource{}
		prog, d := lower(f, p.Name, p.Source)
		infer.InferIncremental(prog, infer.Options{TrustBadCasts: p.TrustBadCasts}, d, rec)
		for _, s := range rec.saves {
			payload := appendSummary(nil, s.sum)
			got, err := decodeSummary(payload)
			if err != nil {
				f.Fatalf("%s/%s: %v", p.Name, s.fn, err)
			}
			if !reflect.DeepEqual(got, s.sum) {
				f.Fatalf("%s/%s: decode(encode(s)) differs from s:\n%+v\n%+v", p.Name, s.fn, got, s.sum)
			}
			f.Add(payload)
		}
	}
	target := progs[0]
	opts := infer.Options{TrustBadCasts: target.TrustBadCasts}
	prog0, d0 := lower(f, target.Name, target.Source)
	want := infer.Infer(prog0, opts, d0).ComputeStats()

	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := decodeSummary(data)
		if err != nil {
			return
		}
		again, err := decodeSummary(appendSummary(nil, sum))
		if err != nil || !reflect.DeepEqual(again, sum) {
			t.Fatalf("a decoded payload does not re-encode to itself: %v", err)
		}
		prog, d := lower(t, target.Name, target.Source)
		res, st := infer.InferIncremental(prog, opts, d, ownSource{sum})
		if st.Loaded == 0 && res.ComputeStats() != want {
			t.Fatalf("a rejected summary changed the result: %+v, want %+v", res.ComputeStats(), want)
		}
	})
}
