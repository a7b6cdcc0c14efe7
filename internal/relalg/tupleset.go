package relalg

import (
	"math/bits"
	"slices"
)

// TupleSet is an insertion-ordered set of tuples of one arity: the one
// in-memory tuple identity of the system. Membership is decided by Tuple.Hash
// plus Tuple.Equal on hit, so neither lookups nor inserts build a key string;
// iteration follows insertion order, so output never depends on the
// per-process hash seed. Members have positions (insertion indexes, int32) and
// are never removed. The zero value is an empty set that takes its arity from
// its first member (MakeTupleSet fixes it); a tuple of another arity is never
// a member. A TupleSet is not safe for concurrent use.
//
// A member is one row of arity values in a pointer-free row chunk of 1<<k
// rows, at most 8 KiB, found through an open-addressing table of positions
// that grows once it is more than 3/4 full (no stored hashes: a resize
// re-hashes, arithmetic over symbol ids). The first chunk grows by copying
// while it is the only one, so a small set stays small; no row is ever
// overwritten, so the views At returns stay valid.
type TupleSet struct {
	chunks [][]Value // row i is chunks[i>>k][(i&mask)*arity:][:arity]
	n      int
	arity  int
	typed  bool // the arity is fixed
	k      uint
	mask   int // 1<<k - 1

	// table has a power-of-two length 2^b whose 3/4 holds n. A member sits at
	// the first free slot at or after its home slot (the top b bits of its
	// hash); the slot's low b bits hold its position+1 (< 2^b, so 0 still
	// means empty) and its high 32-b bits a tag, the hash bits just below the
	// home bits, so a probe compares a row only when the tag matches.
	table []uint32
	shift uint // 64 - b

	hashFn func(Tuple) uint64 // test seam: nil means Tuple.Hash
}

const (
	minTable = 8
	maxChunk = 2048 // values in a row chunk: 8 KiB of 4-byte values
)

// MakeTupleSet returns an empty set of the given arity.
func MakeTupleSet(arity int) TupleSet {
	var s TupleSet
	s.fix(arity)
	return s
}

func (s *TupleSet) fix(arity int) {
	s.arity, s.typed = arity, true
	s.k = uint(bits.Len(uint(max(1, maxChunk/max(1, arity))))) - 1
	s.mask = 1<<s.k - 1
}

func (s *TupleSet) hash(t Tuple) uint64 {
	if s.hashFn != nil {
		return s.hashFn(t)
	}
	return t.Hash()
}

// At returns member i as a read-only view of its row, capacity-capped so
// that a caller's append copies instead of reaching the next row.
func (s *TupleSet) At(i int) Tuple {
	o := (i & s.mask) * s.arity
	return Tuple(s.chunks[i>>s.k][o : o+s.arity : o+s.arity])
}

// find returns the position of t, of the set's arity, given its hash, or -1.
func (s *TupleSet) find(t Tuple, h uint64) int {
	if len(s.table) == 0 {
		return -1
	}
	mask := uint32(len(s.table) - 1)
	tag := s.tag(h)
	for i := uint32(h >> s.shift); ; i = (i + 1) & mask {
		e := s.table[i]
		if e == 0 {
			return -1
		}
		if p := int(e&mask) - 1; e&^mask == tag && s.At(p).Equal(t) {
			return p
		}
	}
}

// tag returns the slot bits above the position for hash h: the 32-b hash
// bits below the b home-slot bits.
func (s *TupleSet) tag(h uint64) uint32 { return uint32(h>>32) << (64 - s.shift) }

// place records position pos, known to be absent, under hash h.
func (s *TupleSet) place(pos int, h uint64) {
	mask := uint32(len(s.table) - 1)
	i := uint32(h >> s.shift)
	for s.table[i] != 0 {
		i = (i + 1) & mask
	}
	s.table[i] = s.tag(h) | uint32(pos+1)
}

// reserve makes the table large enough for n members, re-placing the present
// ones when it has to grow.
func (s *TupleSet) reserve(n int) {
	if 4*n <= 3*len(s.table) {
		return
	}
	size := max(len(s.table), minTable)
	for 4*n > 3*size {
		size *= 2
	}
	s.table = make([]uint32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for pos := range s.n {
		s.place(pos, s.hash(s.At(pos)))
	}
}

// growFirst makes the first chunk, while it is the only one, room for rows
// rows (at most a full chunk).
func (s *TupleSet) growFirst(rows int) {
	rows = min(rows, s.mask+1)
	if len(s.chunks) == 0 {
		s.chunks = [][]Value{make([]Value, 0, rows*s.arity)}
	} else if len(s.chunks) == 1 && cap(s.chunks[0]) < rows*s.arity {
		s.chunks[0] = append(make([]Value, 0, rows*s.arity), s.chunks[0]...)
	}
}

// Grow reserves room for n more members, so that adding them does not
// re-hash the set and, once its arity is fixed, copies no first chunk.
func (s *TupleSet) Grow(n int) {
	s.reserve(s.n + n)
	if s.typed {
		s.growFirst(s.n + n)
	}
}

// Has reports whether the set holds a tuple equal to t.
func (s *TupleSet) Has(t Tuple) bool { return len(t) == s.arity && s.find(t, s.hash(t)) >= 0 }

// Add stores a copy of t unless an equal tuple is present or t has another
// arity, and reports whether the set changed.
func (s *TupleSet) Add(t Tuple) bool {
	if !s.typed {
		s.fix(len(t))
	} else if len(t) != s.arity {
		return false
	}
	h := s.hash(t)
	if s.find(t, h) >= 0 {
		return false
	}
	s.reserve(s.n + 1)
	switch c := s.n >> s.k; {
	case c == 0 && (len(s.chunks) == 0 || len(s.chunks[0]) == cap(s.chunks[0])):
		s.growFirst(max(4, 2*s.n))
	case c == len(s.chunks):
		s.chunks = append(s.chunks, make([]Value, 0, s.arity<<s.k))
	}
	s.chunks[s.n>>s.k] = append(s.chunks[s.n>>s.k], t...)
	s.place(s.n, h)
	s.n++
	return true
}

// Len returns the number of members.
func (s *TupleSet) Len() int { return s.n }

// views returns members from..to-1 as views (see At) in a fresh slice.
func (s *TupleSet) views(from, to int) []Tuple {
	if from >= to {
		return nil
	}
	out := make([]Tuple, to-from)
	for i := range out {
		out[i] = s.At(from + i)
	}
	return out
}

// All returns the members in insertion order as views (see At) in a fresh
// slice: a copying accessor for tests and snapshots, where a hot path walks
// positions with At.
func (s *TupleSet) All() []Tuple { return s.views(0, s.n) }

// clone copies the set chunk by chunk.
func (s *TupleSet) clone() TupleSet {
	c := *s
	c.chunks = make([][]Value, len(s.chunks))
	for i, ch := range s.chunks {
		c.chunks[i] = append(make([]Value, 0, cap(ch)), ch...)
	}
	c.table = slices.Clone(s.table)
	return c
}
