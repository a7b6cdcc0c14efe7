package relalg

import (
	"hash/maphash"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The symbol table holds, once each and for the life of the process, every
// string constant's text, every foreign null's label, the 8 big-endian bytes
// of every int too wide to hold inline, and every Skolem term: a Value of
// those kinds carries the id of its entry here, so equal texts (equal terms)
// are equal ids however they were built. A text is read back only where
// bytes leave the process (Key, AppendValue) or are ordered or shown
// (Compare, String, Int). A term is a short packed key of integers (null.go)
// and no label is stored: a Skolem null's label is rendered from its term
// where a label is read. Ids are dense and assigned in first-use order; they
// are never persisted or sent. The table never shrinks.
//
// A symbol is one word with no pointer: where its bytes lie in the table's
// text chunks (the chunk, the offset, the length) and whether they are a
// text or a term's key. Symbols live in pages that never move, so a page is
// 4 KiB the collector never scans; an index maps the hash of an entry's bytes
// to its id, and a probe matches an id only if it is of the kind sought, so a
// text and a term with the same bytes are two ids. The index
// is extendible hashing: a directory picks a bucket by the hash's top bits,
// and a bucket is a small open-addressing table probed from the hash's low
// bits. A bucket splits in two when one more id would put it over 3/4 full,
// and the directory doubles when a bucket needs a bit it does not have, so no
// addition ever rebuilds the whole index:
// growth comes in steps of a few KiB, which keeps a decode's allocations
// proportional to its input (FuzzDecodeEnvelope bounds them).
//
// A slot holds an id+1 and two hash bits as a tag, so a probe reads the text
// of an id only when those bits match; ids are capped below 2^30-1, which
// leaves a slot room for the tag and fits a Value's 30-bit payload.
//
// A lookup that hits takes no lock: one maphash of the bytes, a probe of one
// bucket, one compare. A miss takes the lock, probes again (another
// goroutine may have added the entry meanwhile), writes the symbol and then
// publishes it by an atomic store into its bucket — the store a reader's
// probe loads before it reads the symbol. A new page is published before any
// of its ids and a new text chunk before any symbol that points into it, a
// split bucket's halves are filled before the directory points at them, and a
// doubled directory is filled before it is swapped in; a reader still holding
// an old bucket or directory finds there every id it held.
var symbols = newSymtab()

// symbol is one table entry. From the low bits up: the length of its bytes
// (wholeChunk for bytes in a chunk of their own), their offset in their
// chunk, for a term the length of its label (labelUnknown when that does not
// fit: the length is measured again) and a bit that marks it a term, and the
// chunk's index, which takes the 30 bits left; there are never more chunks
// than ids. The label's length makes a null's encoded size one load, as a
// text's is; the label itself is never kept.
type symbol uint64

const (
	lenBits    = 10 // a length up to textChunk/16, or wholeChunk
	offBits    = 13 // an offset in a chunk
	labelBits  = 10 // a term's label length
	offShift   = lenBits
	labelShift = offShift + offBits
	termShift  = labelShift + labelBits
	chunkShift = termShift + 1

	wholeChunk   = 1<<lenBits - 1   // the length of bytes stored alone: their whole chunk
	labelUnknown = 1<<labelBits - 1 // a label too long for the field
)

func packSymbol(chunk, off, n int) symbol {
	return symbol(chunk)<<chunkShift | symbol(off)<<offShift | symbol(n)
}

// termBits returns the bits a term's symbol holds beside its key's place.
func termBits(labelLen int) symbol {
	return 1<<termShift | symbol(min(labelLen, labelUnknown))<<labelShift
}

func (s symbol) len() int      { return int(s & (1<<lenBits - 1)) }
func (s symbol) off() int      { return int(s >> offShift & (1<<offBits - 1)) }
func (s symbol) labelLen() int { return int(s >> labelShift & labelUnknown) }
func (s symbol) term() bool    { return s>>termShift&1 == 1 }
func (s symbol) chunk() int    { return int(s >> chunkShift) }

const (
	pageBits    = 9 // a page holds 512 symbols, 4 KiB
	pageSize    = 1 << pageBits
	bucketSlots = 511          // a bucket, its count and its depth are 2 KiB; it splits past 3/4 full
	textChunk   = 1 << offBits // text bytes per chunk, 8 KiB; a text over 1/16 of it is stored alone

	idBits     = 32 - tagBits  // a Value's payload, and a slot's id+1 below its tag
	slotIDMask = 1<<idBits - 1 // a slot's id+1; the bits above it are the tag
	maxSymbols = slotIDMask    // ids are below it, so id+1 fits beside the tag
)

type symPage [pageSize]symbol

// bucket holds the ids whose hashes share its directory prefix. It is
// exactly 2 KiB, a size class of its own, so the allocator rounds nothing up.
type bucket struct {
	slots [bucketSlots]atomic.Uint32 // slotTag | id+1 at or probed past its home slot, 0 if empty
	n     uint16                     // ids held; under symtab.mu
	depth uint8                      // prefix bits: the top depth bits of its ids' hashes agree
}

// home is the slot a probe for hash h starts at; it wraps past the last.
func home(h uint64) int { return int(uint32(h) % bucketSlots) }

// slotTag returns the tag a slot holds above the id for hash h: hash bits 32
// and 33, which neither the home slot (the low 32 bits) nor the directory
// prefix (the top bits) reads, so they tell apart ids that share both.
func slotTag(h uint64) uint32 { return (uint32(h>>32) & 3) << idBits }

// slotID returns the id a slot holds, or -1 for an empty slot.
func slotID(e uint32) int32 { return int32(e&slotIDMask) - 1 }

// full reports whether one more id would put b over 3/4 full.
func (b *bucket) full() bool { return 4*(int(b.n)+1) > 3*bucketSlots }

// index is the directory: entry i is the bucket of the hashes whose top depth
// bits are i. A bucket of depth d < depth fills 2^(depth-d) adjacent entries.
type index struct {
	depth uint8
	dir   []atomic.Pointer[bucket]
}

type symtab struct {
	seed   maphash.Seed
	pages  atomic.Pointer[[]*symPage] // page i holds ids i<<pageBits onwards
	chunks atomic.Pointer[[][]byte]   // the text chunks symbols point into
	index  atomic.Pointer[index]

	mu        sync.Mutex // serialises additions
	n         int        // symbols held: texts and terms
	bytes     int        // the texts' bytes
	terms     int        // the terms among them
	termBytes int        // the terms' key bytes
	active    int        // the chunk small entries are copied into
	used      int        // its bytes in use
}

func newSymtab() *symtab {
	t := &symtab{seed: maphash.MakeSeed()}
	pages, chunks := []*symPage{}, [][]byte{make([]byte, textChunk)}
	x := &index{dir: make([]atomic.Pointer[bucket], 1)}
	x.dir[0].Store(new(bucket))
	t.pages.Store(&pages)
	t.chunks.Store(&chunks)
	t.index.Store(x)
	t.add(maphash.String(t.seed, ""), "", 0) // id 0 is "": Value{} is S("")
	return t
}

// intern returns the id of the text s, adding a copy of s if it is new; s
// itself is never retained.
func (t *symtab) intern(s string) int64 {
	if s == "" {
		return 0
	}
	h := maphash.String(t.seed, s)
	if id := t.find(h, s, false); id >= 0 {
		return int64(id)
	}
	return t.add(h, s, 0)
}

// internBytes is intern for text held in a byte slice, which it reads only
// for the length of the call.
func (t *symtab) internBytes(b []byte) int64 {
	return t.intern(unsafe.String(unsafe.SliceData(b), len(b)))
}

// internTerm returns the id of the term whose key is b (null.go), adding a
// copy of the key if it is new, with its label's length measured once; b is
// read only for the length of the call.
func (t *symtab) internTerm(b []byte) int64 {
	s := unsafe.String(unsafe.SliceData(b), len(b))
	h := maphash.String(t.seed, s)
	if id := t.find(h, s, true); id >= 0 {
		return int64(id)
	}
	return t.add(h, s, termBits(termLabelLen(s)))
}

// sym returns the symbol of an id this process handed out.
func (t *symtab) sym(id int64) symbol {
	return (*t.pages.Load())[id>>pageBits][id&(pageSize-1)]
}

// bytesOf returns the bytes a symbol locates: a text, or a term's key.
func (t *symtab) bytesOf(s symbol) string {
	b := (*t.chunks.Load())[s.chunk()]
	if n := s.len(); n != wholeChunk {
		b = b[s.off() : s.off()+n]
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// text returns the text of an id this process handed out (a term's key for
// a term).
func (t *symtab) text(id int64) string { return t.bytesOf(t.sym(id)) }

func (x *index) bucket(h uint64) *bucket { return x.dir[h>>(64-x.depth)].Load() }

// find returns the id of the text (or, with term set, the term key) s, whose
// hash is h, or -1.
func (t *symtab) find(h uint64, s string, term bool) int32 {
	b, tag := t.index.Load().bucket(h), slotTag(h)
	for i := home(h); ; i = next(i) {
		e := b.slots[i].Load()
		if e == 0 {
			return -1
		}
		if id := slotID(e); e&^slotIDMask == tag {
			if sy := t.sym(int64(id)); sy.term() == term && t.bytesOf(sy) == s {
				return id
			}
		}
	}
}

// next is the slot a probe tries after slot i.
func next(i int) int {
	if i++; i == bucketSlots {
		return 0
	}
	return i
}

// put records id, known to be absent, under hash h.
func (b *bucket) put(h uint64, id int32) {
	i := home(h)
	for b.slots[i].Load() != 0 {
		i = next(i)
	}
	b.slots[i].Store(slotTag(h) | uint32(id+1))
	b.n++
}

// add records s, a text (kind 0) or a term's key (kind its termBits), and
// returns its id.
func (t *symtab) add(h uint64, s string, kind symbol) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id := t.find(h, s, kind.term()); id >= 0 {
		return int64(id)
	}
	id := t.n
	if id == maxSymbols {
		// Past here an id would spill into a slot's tag and out of a Value's
		// payload; 2^30 texts are tens of GB, so this is a loud stop where
		// memory would run out anyway, never a silent wrap.
		panic("relalg: symbol table full: " + strconv.Itoa(maxSymbols) + " distinct texts")
	}
	pages := *t.pages.Load()
	if id == len(pages)*pageSize {
		pages = append(pages, new(symPage))
		t.pages.Store(&pages)
	}
	pages[id>>pageBits][id&(pageSize-1)] = t.store(s) | kind
	t.n++
	if kind.term() {
		t.terms++
		t.termBytes += len(s)
	} else {
		t.bytes += len(s)
	}
	for {
		x := t.index.Load()
		if b := x.bucket(h); !b.full() {
			b.put(h, int32(id))
			return int64(id)
		}
		t.split(x, h)
	}
}

// split replaces the bucket of hash h with two of one more prefix bit,
// doubling the directory first if that bucket already uses all of its bits.
// Callers hold mu.
func (t *symtab) split(x *index, h uint64) {
	old := x.bucket(h)
	if old.depth == x.depth {
		doubled := &index{depth: x.depth + 1, dir: make([]atomic.Pointer[bucket], 2*len(x.dir))}
		for i := range doubled.dir {
			doubled.dir[i].Store(x.dir[i>>1].Load())
		}
		t.index.Store(doubled)
		x = doubled
	}
	d := old.depth + 1
	halves := [2]*bucket{{depth: d}, {depth: d}}
	for i := range old.slots {
		if id := slotID(old.slots[i].Load()); id >= 0 {
			moved := maphash.String(t.seed, t.text(int64(id)))
			halves[moved>>(64-d)&1].put(moved, id)
		}
	}
	first := h >> (64 - old.depth) << (x.depth - old.depth)
	for i := first; i < first+1<<(x.depth-old.depth); i++ {
		x.dir[i].Store(halves[i>>(x.depth-d)&1])
	}
}

// store copies s into the table's text chunks and returns the symbol that
// locates it. Bytes too long to share a chunk get one of their own and leave
// the active chunk active. Callers hold mu.
func (t *symtab) store(s string) symbol {
	chunks := *t.chunks.Load()
	if len(s) > textChunk/16 {
		chunks = append(chunks, []byte(s))
		t.chunks.Store(&chunks)
		return packSymbol(len(chunks)-1, 0, wholeChunk)
	}
	if len(s) > textChunk-t.used {
		chunks = append(chunks, make([]byte, textChunk))
		t.chunks.Store(&chunks)
		t.active, t.used = len(chunks)-1, 0
	}
	off := t.used
	t.used += copy(chunks[t.active][off:], s)
	return packSymbol(t.active, off, len(s))
}

// labelDepth is the invention depth a null label records: n for a label
// "d<n>|…", the prefix of Skolem labels, and 1 for any other (a foreign
// null).
func labelDepth(label string) int {
	if rest, ok := strings.CutPrefix(label, "d"); ok {
		if i := strings.IndexByte(rest, '|'); i > 0 {
			if d, err := strconv.Atoi(rest[:i]); err == nil {
				return d
			}
		}
	}
	return 1
}

// SymbolCounts sizes the symbol table. Every field only grows.
type SymbolCounts struct {
	Texts     int // distinct texts: string constants, foreign null labels, the 8 bytes of each boxed int, "" included
	TextBytes int // their bytes
	Nulls     int // distinct Skolem terms
	NullBytes int // their packed keys' bytes; no label is stored
}

// SymbolStats reports the symbol table's size, texts and null terms apart.
func SymbolStats() SymbolCounts {
	symbols.mu.Lock()
	defer symbols.mu.Unlock()
	return SymbolCounts{Texts: symbols.n - symbols.terms, TextBytes: symbols.bytes, Nulls: symbols.terms, NullBytes: symbols.termBytes}
}
