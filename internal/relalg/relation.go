package relalg

import (
	"fmt"
	"strings"
	"sync"
)

// Relation is a duplicate-free multiset of tuples of fixed arity, stored in
// insertion order as the rows of a TupleSet. A tuple's position assigns it a
// monotonically increasing sequence number, which subscribers use as a
// high-water mark to extract deltas (the "delta optimization" of the paper).
// Relations are not safe for concurrent use; the owning storage.DB serialises
// access.
//
// Attribute positions are indexed one by one, and only those a probe has
// named: a position's index is nil until AppendProbe first asks for it, is
// then built from the stored rows, and is maintained by Insert from there on. A
// relation that is never probed — or probed on its join column only — pays
// for nothing else. An index maps Value.Hash, the hash the value already
// carries, to the positions holding a value with that hash there; two
// values may share a hash, so a probe verifies every candidate against all
// the probed positions.
type Relation struct {
	schema Schema
	set    TupleSet // insertion order; seq number = position + 1

	// pmu serialises index builds against concurrent probes (the rows
	// themselves follow the package's single-writer discipline).
	pmu    sync.Mutex
	posIdx []map[uint64][]int32 // per position; nil slice or nil entry: never probed

	valHash func(Value) uint64 // test seam: nil means Value.Hash
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(schema Schema) *Relation {
	return &Relation{schema: schema, set: MakeTupleSet(schema.Arity())}
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
	if !r.set.Add(t) {
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

// indexLocked returns the index of position p, building it from the rows on
// first use. Callers hold pmu.
func (r *Relation) indexLocked(p int) map[uint64][]int32 {
	if r.posIdx == nil {
		r.posIdx = make([]map[uint64][]int32, r.schema.Arity())
	}
	idx := r.posIdx[p]
	if idx == nil {
		idx = make(map[uint64][]int32)
		for pos := range r.set.Len() {
			h := r.hash(r.set.At(pos)[p])
			idx[h] = append(idx[h], int32(pos))
		}
		r.posIdx[p] = idx
	}
	return idx
}

// AppendProbe appends to dst the tuples whose components equal vals at the
// given positions, in insertion order, so a caller probing in a loop can
// reuse one buffer. It walks the smallest per-position postings list and
// verifies the remaining constraints, so its cost is proportional to the
// fan-out of the most selective position rather than to the relation size.
// The tuples are views of the stored rows (see At). With no positions it
// appends every tuple; positions outside the schema arity match nothing.
func (r *Relation) AppendProbe(dst []Tuple, positions []int, vals []Value) []Tuple {
	if len(positions) == 0 {
		for pos := range r.set.Len() {
			dst = append(dst, r.set.At(pos))
		}
		return dst
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
		t := r.set.At(int(pos))
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
// probes the per-position index instead of scanning the rows; a tuple with no
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
	for _, u := range r.AppendProbe(nil, positions, vals) {
		if t.SubsumedBy(u) {
			return true
		}
	}
	return false
}

// At returns the tuple at position i (sequence number i+1), 0 <= i < Len, as
// a read-only view of its row that stays valid while the relation grows.
func (r *Relation) At(i int) Tuple { return r.set.At(i) }

// All returns the tuples in insertion order, as views (see At), in a fresh
// slice. It is a copying accessor: a hot path walks positions with At.
func (r *Relation) All() []Tuple { return r.set.All() }

// Since returns the tuples inserted after the given high-water mark, in
// insertion order, along with the new mark: one fresh slice of the views At
// returns, which read the same while the relation grows and whose capacity
// is their length, so a caller's append copies instead of reaching a row.
func (r *Relation) Since(mark uint64) ([]Tuple, uint64) {
	n := r.set.Len()
	return r.set.views(int(min(mark, uint64(n))), n), uint64(n)
}

// Sorted returns the tuples in canonical (Tuple.Compare) order; a fresh
// slice, safe to retain.
func (r *Relation) Sorted() []Tuple {
	out := r.set.All()
	SortTuples(out)
	return out
}

// Clone deep-copies the relation (schema shared, rows copied chunk by chunk).
func (r *Relation) Clone() *Relation {
	return &Relation{schema: r.schema, set: r.set.clone()}
}

// Equal reports whether two relations hold exactly the same tuple sets
// (schemas must share the arity; names are not compared).
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() {
		return false
	}
	for pos := range r.set.Len() {
		if !o.set.Has(r.set.At(pos)) {
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
