package relalg

import (
	"fmt"
	"strings"
	"sync"
)

// Relation is a duplicate-free multiset of tuples of fixed arity with an
// append log. The log assigns every inserted tuple a monotonically increasing
// sequence number, which subscribers use as a high-water mark to extract
// deltas (the "delta optimization" of the paper). Relations are not safe for
// concurrent use; the owning storage.DB serialises access.
//
// Attribute positions are indexed one by one, and only those a Probe has
// named: a position's index is nil until AppendProbe first asks for it, is
// then built from the log, and is maintained by Insert from there on. A
// relation that is never probed — or probed on its join column only — pays
// for nothing else. An index maps Value.Hash, the hash the value already
// carries, to the log positions holding a value with that hash there; two
// values may share a hash, so a probe verifies every candidate against all
// the probed positions.
type Relation struct {
	schema Schema
	set    TupleSet // insertion order; seq number = position + 1

	// pmu serialises index builds against concurrent probes (the log itself
	// follows the package's single-writer discipline).
	pmu    sync.Mutex
	posIdx []map[uint64][]int32 // per position; nil slice or nil entry: never probed

	valHash func(Value) uint64 // test seam: nil means Value.Hash
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(schema Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of (distinct) tuples.
func (r *Relation) Len() int { return r.set.Len() }

// Seq returns the current high-water mark: the sequence number of the most
// recently inserted tuple (0 when empty).
func (r *Relation) Seq() uint64 { return uint64(r.set.Len()) }

// Contains reports whether the exact tuple is present.
func (r *Relation) Contains(t Tuple) bool { return r.set.Has(t) }

// Insert adds a copy of t if not already present, returning true when the
// relation changed. The tuple's arity must match the schema.
func (r *Relation) Insert(t Tuple) (bool, error) {
	if len(t) != r.schema.Arity() {
		return false, fmt.Errorf("relalg: arity mismatch inserting %d-tuple into %s", len(t), r.schema)
	}
	if !r.set.AddClone(t) {
		return false, nil
	}
	r.pmu.Lock()
	pos := r.set.Len() - 1
	for i, idx := range r.posIdx {
		if idx != nil {
			h := r.hash(t[i])
			idx[h] = append(idx[h], int32(pos))
		}
	}
	r.pmu.Unlock()
	return true, nil
}

func (r *Relation) hash(v Value) uint64 {
	if r.valHash != nil {
		return r.valHash(v)
	}
	return v.Hash()
}

// indexLocked returns the index of position p, building it from the log on
// first use. Callers hold pmu.
func (r *Relation) indexLocked(p int) map[uint64][]int32 {
	if r.posIdx == nil {
		r.posIdx = make([]map[uint64][]int32, r.schema.Arity())
	}
	idx := r.posIdx[p]
	if idx == nil {
		idx = make(map[uint64][]int32)
		for pos, t := range r.set.log {
			h := r.hash(t[p])
			idx[h] = append(idx[h], int32(pos))
		}
		r.posIdx[p] = idx
	}
	return idx
}

// Probe returns the tuples whose components equal vals at the given
// positions, in insertion order. It walks the smallest per-position postings
// list and verifies the remaining constraints, so its cost is proportional to
// the fan-out of the most selective position rather than to the relation
// size. With no positions it returns every tuple (aliasing the log, like
// All); positions outside the schema arity match nothing.
func (r *Relation) Probe(positions []int, vals []Value) []Tuple {
	if len(positions) == 0 {
		return r.set.log
	}
	return r.AppendProbe(nil, positions, vals)
}

// AppendProbe is Probe appending its matches to dst, so a caller probing in
// a loop can reuse one buffer.
func (r *Relation) AppendProbe(dst []Tuple, positions []int, vals []Value) []Tuple {
	if len(positions) == 0 {
		return append(dst, r.set.log...)
	}
	arity := r.schema.Arity()
	for _, p := range positions {
		if p < 0 || p >= arity {
			return dst
		}
	}
	r.pmu.Lock()
	defer r.pmu.Unlock()
	var shortest []int32
	for i, p := range positions {
		list := r.indexLocked(p)[r.hash(vals[i])]
		if i == 0 || len(list) < len(shortest) {
			shortest = list
		}
	}
candidates:
	for _, pos := range shortest {
		t := r.set.log[pos]
		for i, p := range positions {
			if t[p] != vals[i] {
				continue candidates
			}
		}
		dst = append(dst, t)
	}
	return dst
}

// SubsumedByExisting reports whether t is subsumed by some stored tuple
// (core-mode redundancy check for tuples carrying nulls). Constant-only
// tuples reduce to Contains. Since subsumption fixes constants, only tuples
// agreeing with t on its constant positions can subsume it, so the check
// probes the per-position index instead of scanning the log; a tuple with no
// constants at all still falls back to the full scan.
func (r *Relation) SubsumedByExisting(t Tuple) bool {
	if !t.HasNull() {
		return r.Contains(t)
	}
	if len(t) != r.schema.Arity() {
		return false
	}
	var positions []int
	var vals []Value
	for i, v := range t {
		if v.IsConst() {
			positions = append(positions, i)
			vals = append(vals, v)
		}
	}
	for _, u := range r.Probe(positions, vals) {
		if t.SubsumedBy(u) {
			return true
		}
	}
	return false
}

// All returns the tuples in insertion order. The returned slice aliases the
// log; callers must not modify it or the tuples.
func (r *Relation) All() []Tuple { return r.set.log }

// Since returns the tuples inserted after the given high-water mark, in
// insertion order, along with the new mark. The slice is a read-only view of
// the log: a log prefix is immutable (members never move and are never
// overwritten), so it stays valid while the relation grows, and its capacity
// is its length, so a caller's append copies instead of reaching the log.
func (r *Relation) Since(mark uint64) ([]Tuple, uint64) {
	n := uint64(r.set.Len())
	if mark > n {
		mark = n
	}
	return r.set.log[mark:n:n], n
}

// Sorted returns the tuples in canonical (Tuple.Compare) order; a fresh
// slice, safe to retain.
func (r *Relation) Sorted() []Tuple {
	out := append([]Tuple(nil), r.set.log...)
	SortTuples(out)
	return out
}

// Clone deep-copies the relation (schema shared, tuples copied).
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.schema)
	c.set.Grow(r.Len())
	for _, t := range r.set.log {
		c.set.AddClone(t)
	}
	return c
}

// Equal reports whether two relations hold exactly the same tuple sets
// (schemas must share the arity; names are not compared).
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() {
		return false
	}
	for _, t := range r.set.log {
		if !o.set.Has(t) {
			return false
		}
	}
	return true
}

// String renders the relation as name{(..),(..)} in canonical order, capped
// for readability.
func (r *Relation) String() string {
	const cap = 16
	ts := r.Sorted()
	var b strings.Builder
	b.WriteString(r.schema.Name)
	b.WriteString("{")
	for i, t := range ts {
		if i == cap {
			fmt.Fprintf(&b, " …+%d", len(ts)-cap)
			break
		}
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(t.String())
	}
	b.WriteString("}")
	return b.String()
}
