package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"gocured/internal/infer"
)

// Artifacts addresses compile artifacts inside a chunk store. Every key
// folds in the gocured version and the Go toolchain version, so upgrading
// either invalidates the whole store wholesale (old chunks simply stop
// being addressed; they are never misread).
type Artifacts struct {
	store     *Store
	version   string
	goVersion string
}

// NewArtifacts wraps a chunk store with the key schema for this compiler
// revision. version is gocured.Version; goVersion is runtime.Version().
func NewArtifacts(s *Store, version, goVersion string) *Artifacts {
	return &Artifacts{store: s, version: version, goVersion: goVersion}
}

// Store returns the underlying chunk store.
func (a *Artifacts) Store() *Store { return a.store }

// summaryDomain tags summary chunk keys. It names the payload encoding, so
// chunks written in an earlier encoding are never addressed.
const summaryDomain = "gocured-func-summary-flat1"

// ForOptions returns the per-function summary source for one inference
// configuration; opts may be any options value with a stable "%+v"
// rendering (infer.Options, gocured.Options). Chunk keys are
//
//	SHA-256(domain tag, version, Go version, options, function name,
//	        body fingerprint, declaration fingerprint)
//
// so two configurations never share chunks and a source never needs
// invalidation logic beyond "the key changed".
func (a *Artifacts) ForOptions(opts any) infer.SummarySource {
	var prefix []byte
	for _, part := range []string{summaryDomain, a.version, a.goVersion, fmt.Sprintf("%+v", opts)} {
		prefix = appendPart(prefix, part)
	}
	return &summarySource{a: a, prefix: prefix}
}

type summarySource struct {
	a *Artifacts
	// prefix is the key's framed configuration parts, fixed per source.
	prefix []byte
}

func appendPart(b []byte, part string) []byte {
	return append(append(strconv.AppendInt(b, int64(len(part)), 10), ':'), part...)
}

func (s *summarySource) key(fn string, body, decls [sha256.Size]byte) [sha256.Size]byte {
	b := appendPart(append(make([]byte, 0, len(s.prefix)+len(fn)+8+2*sha256.Size), s.prefix...), fn)
	return sha256.Sum256(append(append(b, body[:]...), decls[:]...))
}

func (s *summarySource) Load(fn string, body, decls [sha256.Size]byte) (*infer.FuncSummary, bool) {
	key := s.key(fn, body, decls)
	data, ok := s.a.store.Get(key)
	if !ok {
		return nil, false
	}
	sum, err := decodeSummary(data)
	if err != nil {
		// The payload hash verified but the encoding is not one we can
		// read (e.g. a schema skew the version key failed to capture).
		// Useless chunk: drop it and recompile.
		s.a.store.drop(s.a.store.path(key), int64(headerSize+len(data)))
		return nil, false
	}
	return sum, true
}

func (s *summarySource) Save(sum *infer.FuncSummary, fn string, body, decls [sha256.Size]byte) {
	// Best-effort: a full disk or unwritable store degrades to recompiling.
	_ = s.a.store.Put(s.key(fn, body, decls), appendSummary(nil, sum))
}

// The chunk payload is a flat varint encoding of a FuncSummary, in field
// order: Func; Owners; Occs as (Owner, Idx); Strs; Ops; Deps as (Fn, Body);
// NSites; NCasts. A list is its length then its elements, a string its
// length then its bytes, and every int32 a zig-zag varint. An op is its
// Code, a flag byte (AReg, BReg, TileOK, Trusted from bit 0 up) and its
// Class, then A, B, Rule, File, Line, Col, Site and N.

const opFlagMask = 1<<4 - 1

func appendSummary(b []byte, s *infer.FuncSummary) []byte {
	i32 := func(v int32) { b = binary.AppendVarint(b, int64(v)) }
	n := func(l int) { b = binary.AppendUvarint(b, uint64(l)) }
	str := func(v string) { n(len(v)); b = append(b, v...) }
	str(s.Func)
	n(len(s.Owners))
	for _, o := range s.Owners {
		str(o)
	}
	n(len(s.Occs))
	for _, o := range s.Occs {
		i32(o.Owner)
		i32(o.Idx)
	}
	n(len(s.Strs))
	for _, v := range s.Strs {
		str(v)
	}
	n(len(s.Ops))
	for i := range s.Ops {
		op := &s.Ops[i]
		var fl byte
		for bit, set := range [...]bool{op.AReg, op.BReg, op.TileOK, op.Trusted} {
			if set {
				fl |= 1 << bit
			}
		}
		b = append(b, op.Code, fl, op.Class)
		for _, v := range [...]int32{op.A, op.B, op.Rule, op.File, op.Line, op.Col, op.Site, op.N} {
			i32(v)
		}
	}
	n(len(s.Deps))
	for _, d := range s.Deps {
		str(d.Fn)
		b = append(b, d.Body[:]...)
	}
	i32(s.NSites)
	i32(s.NCasts)
	return b
}

// decoder reads the payload format. The first error empties the input, so
// every later read fails fast and returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New("summary payload: " + msg)
	}
	d.b = nil
}

func (d *decoder) i32() int32 {
	v, k := binary.Varint(d.b)
	if k <= 0 || v != int64(int32(v)) {
		d.fail("bad int")
		return 0
	}
	d.b = d.b[k:]
	return int32(v)
}

// count reads a length of elements each at least min bytes long, bounded by
// the bytes left, so a corrupt length can never drive a large allocation.
func (d *decoder) count(min int) int {
	v, k := binary.Uvarint(d.b)
	if k <= 0 || v > uint64(len(d.b)-k)/uint64(min) {
		d.fail("bad length")
		return 0
	}
	d.b = d.b[k:]
	return int(v)
}

func (d *decoder) bytes(n int) []byte {
	if n > len(d.b) {
		d.fail("truncated")
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string { return string(d.bytes(d.count(1))) }

func decodeSummary(data []byte) (*infer.FuncSummary, error) {
	d := &decoder{b: data}
	s := &infer.FuncSummary{Func: d.str()}
	if n := d.count(1); n > 0 {
		s.Owners = make([]string, n)
		for i := range s.Owners {
			s.Owners[i] = d.str()
		}
	}
	if n := d.count(2); n > 0 {
		s.Occs = make([]infer.SumOcc, n)
		for i := range s.Occs {
			s.Occs[i] = infer.SumOcc{Owner: d.i32(), Idx: d.i32()}
		}
	}
	if n := d.count(1); n > 0 {
		s.Strs = make([]string, n)
		for i := range s.Strs {
			s.Strs[i] = d.str()
		}
	}
	if n := d.count(11); n > 0 {
		s.Ops = make([]infer.Op, n)
		for i := range s.Ops {
			h := d.bytes(3)
			if h == nil {
				break
			}
			if h[1]&^opFlagMask != 0 {
				d.fail("bad op flags")
				break
			}
			op := &s.Ops[i]
			op.Code, op.Class = h[0], h[2]
			op.AReg, op.BReg, op.TileOK, op.Trusted = h[1]&1 != 0, h[1]&2 != 0, h[1]&4 != 0, h[1]&8 != 0
			for _, f := range [...]*int32{&op.A, &op.B, &op.Rule, &op.File, &op.Line, &op.Col, &op.Site, &op.N} {
				*f = d.i32()
			}
		}
	}
	if n := d.count(1 + sha256.Size); n > 0 {
		s.Deps = make([]infer.FuncDep, n)
		for i := range s.Deps {
			s.Deps[i].Fn = d.str()
			copy(s.Deps[i].Body[:], d.bytes(sha256.Size))
		}
	}
	s.NSites = d.i32()
	s.NCasts = d.i32()
	if d.err == nil && len(d.b) != 0 {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}
