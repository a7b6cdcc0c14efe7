package relalg

import "math/bits"

// TupleSet is an insertion-ordered set of tuples: the one in-memory tuple
// identity of the system. Membership is decided by Tuple.Hash plus
// Tuple.Equal on hit, so neither lookups nor inserts build a key string;
// iteration follows insertion order, so output never depends on the
// per-process hash seed. Every member has a position — its insertion index —
// and members are never removed, so positions stay valid. The zero value is
// an empty set ready for use. A TupleSet is not safe for concurrent use.
//
// Storage is three flat slices and no per-member allocation: the log of
// members, an open-addressing table of their positions (no stored hashes: a
// resize re-hashes, which is arithmetic over symbol ids), and, for AddClone,
// value chunks the stored copies are carved from; a Value holds no pointer, so
// the collector never scans a chunk. Positions are int32, so a set holds at
// most 2^31-1 members.
type TupleSet struct {
	log []Tuple // log[i] holds position i

	// table holds position+1 at the first free slot at or after the member's
	// home slot (the top bits of its hash), 0 where empty; its length is a
	// power of two at least twice len(log).
	table []int32
	shift uint // 64 - log2(len(table))

	chunk []Value // unused tail of the newest value chunk

	hashFn func(Tuple) uint64 // test seam: nil means Tuple.Hash
}

const (
	minTable = 8
	// maxChunk bounds a value chunk, and so the values a long-lived set
	// holds in reserve, to 16 KiB.
	maxChunk = 1024
)

func (s *TupleSet) hash(t Tuple) uint64 {
	if s.hashFn != nil {
		return s.hashFn(t)
	}
	return t.Hash()
}

// find returns the position of t given its hash, or -1.
func (s *TupleSet) find(t Tuple, h uint64) int {
	if len(s.table) == 0 {
		return -1
	}
	mask := len(s.table) - 1
	for i := int(h >> s.shift); ; i = (i + 1) & mask {
		p := s.table[i]
		if p == 0 {
			return -1
		}
		if s.log[p-1].Equal(t) {
			return int(p - 1)
		}
	}
}

// place records position pos, known to be absent, under hash h.
func (s *TupleSet) place(pos int, h uint64) {
	mask := len(s.table) - 1
	i := int(h >> s.shift)
	for s.table[i] != 0 {
		i = (i + 1) & mask
	}
	s.table[i] = int32(pos + 1)
}

// reserve makes the table large enough for n members, re-placing the present
// ones when it has to grow.
func (s *TupleSet) reserve(n int) {
	if 2*n <= len(s.table) {
		return
	}
	size := max(len(s.table), minTable)
	for size < 2*n {
		size *= 2
	}
	s.table = make([]int32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for pos, t := range s.log {
		s.place(pos, s.hash(t))
	}
}

// Grow reserves room for n more members, so that adding them neither
// re-hashes the set nor reallocates its log, and sizes the next value chunk
// for them.
func (s *TupleSet) Grow(n int) {
	if need := len(s.log) + n; need > cap(s.log) {
		log := make([]Tuple, len(s.log), need)
		copy(log, s.log)
		s.log = log
	}
	s.reserve(len(s.log) + n)
}

// append stores t, known to be absent, under hash h and returns its position.
func (s *TupleSet) append(t Tuple, h uint64) int {
	pos := len(s.log)
	s.reserve(pos + 1)
	s.log = append(s.log, t)
	s.place(pos, h)
	return pos
}

// clone copies t into the set's value chunks. A new chunk is sized for the
// members the log has room for (Grow's promise, or append's own geometric
// growth) up to maxChunk, so a set allocates per chunk, not per tuple.
func (s *TupleSet) clone(t Tuple) Tuple {
	n := len(t)
	if n > len(s.chunk) {
		room := cap(s.log) - len(s.log) + 1 // the log already holds this member
		s.chunk = make([]Value, max(n, min(maxChunk, room*n)))
	}
	out := Tuple(s.chunk[:n:n])
	s.chunk = s.chunk[n:]
	copy(out, t)
	return out
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
// made only when the tuple is new. The copy is a slice of one of the set's
// value chunks, so whoever keeps a member keeps its chunk alive.
func (s *TupleSet) AddClone(t Tuple) bool {
	h := s.hash(t)
	if s.find(t, h) >= 0 {
		return false
	}
	pos := s.append(nil, h)
	s.log[pos] = s.clone(t)
	return true
}

// Len returns the number of members.
func (s *TupleSet) Len() int { return len(s.log) }

// All returns the members in insertion order. The slice aliases the set's
// storage: callers must not modify it or the tuples, and it is only a
// snapshot once the set changes — the members it lists stay what they were.
func (s *TupleSet) All() []Tuple { return s.log }
