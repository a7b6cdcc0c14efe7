package relalg

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Tuple is an ordered list of values; its arity is fixed by the relation
// schema it belongs to. Tuples are value types: callers must not mutate a
// Tuple after handing it to a Relation.
type Tuple []Value

// Key returns a canonical injective encoding of the tuple, as a string the
// tests use as a map key. Each component key is length-prefixed, so
// arbitrary payload bytes (including separators) cannot cause collisions.
// The same bytes (AppendKey) are the tuple's serialised identity — Skolem
// null labels embed them, so they are part of the on-disk and on-wire format
// and must never change. In-memory sets use Hash and Equal instead (see
// TupleSet).
func (t Tuple) Key() string {
	var stack [128]byte
	return string(t.AppendKey(stack[:0]))
}

// AppendKey appends the bytes of Key to b.
func (t Tuple) AppendKey(b []byte) []byte {
	for _, v := range t {
		b = v.appendKey(b)
	}
	return b
}

// Hash returns a process-local 64-bit hash of the tuple, consistent with
// Equal and computed without allocating. It is seeded per process, so it
// must never be persisted, sent, or used to order output.
func (t Tuple) Hash() uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = (bits.RotateLeft64(h, 5) ^ v.Hash()) * 0x9e3779b97f4a7c15
	}
	return h
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports component-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a fresh copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// HasNull reports whether any component is a labelled null.
func (t Tuple) HasNull() bool {
	for _, v := range t {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// Compare orders tuples lexicographically by Value.Compare; shorter tuples
// sort first on ties.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	return len(t) - len(u)
}

// SortTuples puts ts in canonical (Tuple.Compare) order, in place: the order
// of everything a person reads (query replies, Relation.String, DB.Dump).
func SortTuples(ts []Tuple) {
	slices.SortFunc(ts, Tuple.Compare)
}

// SubsumedBy reports whether t is subsumed by u: there is a homomorphism
// h fixing constants with h(t) = u, i.e. every constant of t equals the
// corresponding component of u and every null of t maps consistently to the
// corresponding component of u. A tuple subsumed by an existing tuple adds no
// information to the certain answers, so "core mode" insertion may skip it.
func (t Tuple) SubsumedBy(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	var m map[Value]Value
	for i, v := range t {
		if v.IsConst() {
			if v != u[i] {
				return false
			}
			continue
		}
		if m == nil {
			m = make(map[Value]Value, 2)
		}
		if prev, ok := m[v]; ok {
			if prev != u[i] {
				return false
			}
			continue
		}
		m[v] = u[i]
	}
	return true
}

// Schema describes one relation: a name and named attributes. Attribute
// names are informational (used by the surface syntax and pretty printers);
// positions carry the semantics.
type Schema struct {
	Name  string
	Attrs []string
}

// Arity returns the number of attributes.
func (s Schema) Arity() int { return len(s.Attrs) }

// String renders name(attr1, attr2, ...).
func (s Schema) String() string {
	return fmt.Sprintf("%s(%s)", s.Name, strings.Join(s.Attrs, ", "))
}

// MakeSchema builds a Schema with synthesised attribute names a1..aN when
// only an arity is known.
func MakeSchema(name string, arity int) Schema {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i+1)
	}
	return Schema{Name: name, Attrs: attrs}
}
