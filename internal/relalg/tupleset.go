package relalg

import "sort"

// TupleSet is an insertion-ordered set of tuples: the one in-memory tuple
// identity of the system. Membership is decided by Tuple.Hash plus
// Tuple.Equal on hit, so neither lookups nor inserts build a key string;
// iteration follows insertion order, so output never depends on the
// per-process hash seed. Every member has a position — its insertion index —
// and members are never removed, so positions stay valid. The zero value is
// an empty set ready for use. A TupleSet is not safe for concurrent use.
type TupleSet struct {
	log []Tuple // log[i] holds position i

	// first maps a hash to the earliest position carrying it; more
	// holds any further positions with the same hash, ascending (distinct
	// tuples colliding on all 64 bits — empty in practice).
	first map[uint64]int
	more  map[uint64][]int

	hashFn func(Tuple) uint64 // test seam: nil means Tuple.Hash
}

func (s *TupleSet) hash(t Tuple) uint64 {
	if s.hashFn != nil {
		return s.hashFn(t)
	}
	return t.Hash()
}

// find returns the position of t given its hash, or -1.
func (s *TupleSet) find(t Tuple, h uint64) int {
	pos, ok := s.first[h]
	if !ok {
		return -1
	}
	if s.log[pos].Equal(t) {
		return pos
	}
	for _, pos := range s.more[h] {
		if s.log[pos].Equal(t) {
			return pos
		}
	}
	return -1
}

// append stores t, known to be absent, under hash h and returns its position.
func (s *TupleSet) append(t Tuple, h uint64) int {
	pos := len(s.log)
	s.log = append(s.log, t)
	if s.first == nil {
		s.first = make(map[uint64]int)
	}
	if _, taken := s.first[h]; !taken {
		s.first[h] = pos
		return pos
	}
	if s.more == nil {
		s.more = make(map[uint64][]int)
	}
	s.more[h] = append(s.more[h], pos)
	return pos
}

// Has reports whether the set holds a tuple equal to t.
func (s *TupleSet) Has(t Tuple) bool { return s.find(t, s.hash(t)) >= 0 }

// Add inserts t itself (no copy: the caller must not modify it afterwards)
// unless an equal tuple is present, and reports whether the set changed.
func (s *TupleSet) Add(t Tuple) bool {
	h := s.hash(t)
	if s.find(t, h) >= 0 {
		return false
	}
	s.append(t, h)
	return true
}

// AddClone is Add for a tuple the caller goes on to reuse: it stores a copy,
// made only when the tuple is new.
func (s *TupleSet) AddClone(t Tuple) bool {
	h := s.hash(t)
	if s.find(t, h) >= 0 {
		return false
	}
	s.append(t.Clone(), h)
	return true
}

// Len returns the number of members.
func (s *TupleSet) Len() int { return len(s.log) }

// All returns the members in insertion order. The slice aliases the set's
// storage: callers must not modify it or the tuples, and it is only a
// snapshot once the set changes.
func (s *TupleSet) All() []Tuple { return s.log }

// Sorted returns the members in canonical (Tuple.Compare) order; a fresh
// slice, safe to retain.
func (s *TupleSet) Sorted() []Tuple {
	out := make([]Tuple, len(s.log))
	copy(out, s.log)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
