// Package rtti implements the global run-time type hierarchy of §3.2:
// a registry of the pointer base types occurring in a program, the
// compile-time function rttiOf mapping a type to its hierarchy node, and the
// run-time predicate isSubtype over nodes (physical subtyping). RTTI
// pointers carry a node alongside the pointer value; checked downcasts call
// IsSubtype at run time.
package rtti

import (
	"strconv"
	"sync"

	"gocured/internal/ctypes"
)

// Node is one type in the hierarchy.
type Node struct {
	ID   int
	Ty   *ctypes.Type
	Name string
}

func (n *Node) String() string { return n.Name }

// Hierarchy is the program-wide physical subtyping hierarchy. It is safe
// for concurrent use: the interpreter consults it (and may register nodes
// or cache subtype verdicts) while a compiled program runs, possibly from
// many goroutines at once.
type Hierarchy struct {
	mu       sync.RWMutex
	nodes    []*Node
	byKey    map[string]*Node
	subCache map[[2]int]int8 // -1 unknown, 0 false, 1 true
	// VoidNode is the top of the hierarchy (every type ≤ void).
	VoidNode *Node
}

// NewHierarchy returns a hierarchy containing only void.
func NewHierarchy() *Hierarchy {
	h := &Hierarchy{
		byKey:    make(map[string]*Node),
		subCache: make(map[[2]int]int8),
	}
	h.VoidNode = h.Of(ctypes.VoidType())
	return h
}

// appendKey appends t's hierarchy key to b: struct types by definition
// (StructInfo.Index, unique within one program, and a hierarchy holds the
// types of one program), everything else structurally.
func appendKey(b []byte, t *ctypes.Type) []byte {
	switch t.Kind {
	case ctypes.Void:
		return append(b, "void"...)
	case ctypes.Int:
		sign := byte('u')
		if t.Signed {
			sign = 'i'
		}
		return strconv.AppendInt(append(b, sign), int64(t.Size*8), 10)
	case ctypes.Float:
		return strconv.AppendInt(append(b, 'f'), int64(t.Size*8), 10)
	case ctypes.Ptr:
		return appendKey(append(b, '*'), t.Elem)
	case ctypes.Array:
		b = strconv.AppendInt(append(b, '['), int64(t.Len), 10)
		return appendKey(append(b, ']'), t.Elem)
	case ctypes.Struct:
		return strconv.AppendInt(append(b, "su"...), int64(t.SU.Index), 10)
	case ctypes.Func:
		b = append(b, "fn("...)
		for i, p := range t.Fn.Params {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendKey(b, p)
		}
		if t.Fn.Variadic {
			b = append(b, ",..."...)
		}
		return appendKey(append(b, ')'), t.Fn.Ret)
	}
	return append(b, '?')
}

// Of registers (if needed) and returns the hierarchy node for t. This is
// the compile-time rttiOf function; the interpreter also calls it at run
// time when a statically-typed pointer first records its type.
func (h *Hierarchy) Of(t *ctypes.Type) *Node {
	var buf [64]byte
	k := appendKey(buf[:0], t)
	h.mu.RLock()
	n, ok := h.byKey[string(k)]
	h.mu.RUnlock()
	if ok {
		return n
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if n, ok := h.byKey[string(k)]; ok {
		return n
	}
	n = &Node{ID: len(h.nodes) + 1, Ty: t, Name: t.String()}
	h.nodes = append(h.nodes, n)
	h.byKey[string(k)] = n
	return n
}

// Lookup returns the node for t if registered, else nil.
func (h *Hierarchy) Lookup(t *ctypes.Type) *Node {
	var buf [64]byte
	k := appendKey(buf[:0], t)
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.byKey[string(k)]
}

// IsSubtype reports whether a ≤ b (a is a physical subtype of b), i.e. a
// pointer to an a may be used where a pointer to a b is expected after a
// checked downcast from b to a succeeds in reverse. It is the run-time
// subtype test of §3.2; it compares on a pooled Matcher.
func (h *Hierarchy) IsSubtype(a, b *Node) bool { return h.isSubtype(a, b, nil) }

// isSubtype is IsSubtype comparing on m, or on a pooled Matcher if m is nil.
func (h *Hierarchy) isSubtype(a, b *Node, m *ctypes.Matcher) bool {
	if a == b {
		return true
	}
	ck := [2]int{a.ID, b.ID}
	h.mu.RLock()
	v, ok := h.subCache[ck]
	h.mu.RUnlock()
	if ok {
		return v == 1
	}
	// a ≤ b iff b's layout is a prefix of a's layout.
	var sub bool
	if m != nil {
		sub, _ = m.Prefix(a.Ty, b.Ty)
	} else {
		sub, _ = ctypes.Prefix(a.Ty, b.Ty)
	}
	v = 0
	if sub {
		v = 1
	}
	h.mu.Lock()
	h.subCache[ck] = v
	h.mu.Unlock()
	return sub
}

// HasStrictSubtypes reports whether any registered aggregate type is a
// strict physical subtype of n's type. The inference uses this to avoid
// propagating the RTTI kind to pointers whose static type has no subtypes
// in the program (§3.2: such pointers stay SAFE). It compares on m, the
// inference's own Matcher.
func (h *Hierarchy) HasStrictSubtypes(n *Node, m *ctypes.Matcher) bool {
	nodes := h.Nodes()
	if n == h.VoidNode {
		// Everything is a subtype of void; void has strict subtypes as
		// soon as the program has any other registered type.
		return len(nodes) > 1
	}
	// Only aggregates participate (a scalar's "subtypes" — structs that
	// start with it — do not make programs use it polymorphically).
	if n.Ty.Kind != ctypes.Struct {
		return false
	}
	for _, s := range nodes {
		if s == n || s.Ty.Kind != ctypes.Struct {
			continue
		}
		if h.isSubtype(s, n, m) {
			return true
		}
	}
	return false
}

// Nodes returns a snapshot of all registered nodes. Node IDs are 1-based
// and dense, so nodes[id-1] recovers a node from its ID; elements already
// registered are never mutated, making the snapshot safe to read while
// other goroutines register new types.
func (h *Hierarchy) Nodes() []*Node {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.nodes[:len(h.nodes):len(h.nodes)]
}

// Len returns the number of registered types.
func (h *Hierarchy) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.nodes)
}
