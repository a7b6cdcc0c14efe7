package relalg

import (
	"hash/maphash"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The symbol table holds every string constant's text, every null's label and
// the 8 big-endian bytes of every int too wide to hold inline, once, for the
// life of the process: a Value of those kinds carries the id of its text here,
// so equal texts are equal ids however they were built, and the text is read
// back only where bytes leave the process (Key, AppendValue) or are ordered or
// shown (Compare, String, Int). Ids are dense and assigned in first-use
// order; they are never persisted or sent. The table never shrinks.
//
// Symbols live in pages that never move and texts in shared chunks; an index
// maps a text's hash to its id. The index is extendible hashing: a directory
// picks a bucket by the hash's top bits, and a bucket is a small
// open-addressing table probed from the hash's low bits. A full bucket splits
// in two, and the directory doubles when a bucket needs a bit it does not
// have, so no addition ever rebuilds the whole index: growth comes in steps of
// a few KiB, which keeps a decode's allocations proportional to its input
// (FuzzDecodeEnvelope bounds them).
//
// A lookup that hits takes no lock: one maphash of the text, a probe of one
// bucket, one text compare. A miss takes the lock, probes again (another
// goroutine may have added the text meanwhile), writes the symbol and then
// publishes it by an atomic store into its bucket — the store a reader's
// probe loads before it reads the symbol. A new page is published before any
// of its ids, a split bucket's halves are filled before the directory points
// at them, and a doubled directory is filled before it is swapped in; a reader
// still holding an old bucket or directory finds there every id it held.
var symbols = newSymtab()

// symbol is one table entry.
type symbol struct {
	text  string // in one of the table's text chunks
	depth int    // labelDepth(text): what NullDepth reads
}

const (
	pageBits    = 9 // a page holds 512 symbols, 12 KiB
	pageSize    = 1 << pageBits
	bucketSlots = 512 // a bucket is 2 KiB and splits when half full
	slotMask    = bucketSlots - 1
	textChunk   = 8 << 10 // text bytes per chunk; a text over 1/16 of it is stored alone
)

type symPage [pageSize]symbol

// bucket holds the ids whose hashes share its directory prefix.
type bucket struct {
	slots [bucketSlots]atomic.Int32 // id+1 at or probed past its home slot, 0 if empty
	depth uint                      // prefix bits: the top depth bits of its ids' hashes agree
	n     int                       // ids held; under symtab.mu
}

// index is the directory: entry i is the bucket of the hashes whose top depth
// bits are i. A bucket of depth d < depth fills 2^(depth-d) adjacent entries.
type index struct {
	depth uint
	dir   []atomic.Pointer[bucket]
}

type symtab struct {
	seed  maphash.Seed
	pages atomic.Pointer[[]*symPage] // page i holds ids i<<pageBits onwards
	index atomic.Pointer[index]

	mu    sync.Mutex // serialises additions
	n     int        // symbols held
	bytes int        // their text bytes
	free  []byte     // unused tail of the newest text chunk
}

func newSymtab() *symtab {
	t := &symtab{seed: maphash.MakeSeed()}
	pages, x := []*symPage{}, &index{dir: make([]atomic.Pointer[bucket], 1)}
	x.dir[0].Store(new(bucket))
	t.pages.Store(&pages)
	t.index.Store(x)
	t.add(maphash.String(t.seed, ""), "") // id 0 is "": Value{} is S("")
	return t
}

// intern returns the id of s, adding a copy of s if it is new; s itself is
// never retained.
func (t *symtab) intern(s string) int64 {
	if s == "" {
		return 0
	}
	h := maphash.String(t.seed, s)
	if id := t.find(h, s); id >= 0 {
		return int64(id)
	}
	return t.add(h, s)
}

// internBytes is intern for text held in a byte slice, which it reads only
// for the length of the call.
func (t *symtab) internBytes(b []byte) int64 {
	return t.intern(unsafe.String(unsafe.SliceData(b), len(b)))
}

// sym returns the symbol of an id this process handed out.
func (t *symtab) sym(id int64) *symbol {
	return &(*t.pages.Load())[id>>pageBits][id&(pageSize-1)]
}

func (x *index) bucket(h uint64) *bucket { return x.dir[h>>(64-x.depth)].Load() }

// find returns the id of s, whose hash is h, or -1.
func (t *symtab) find(h uint64, s string) int32 {
	b := t.index.Load().bucket(h)
	for i := h; ; i++ {
		id := b.slots[i&slotMask].Load() - 1
		if id < 0 || t.sym(int64(id)).text == s {
			return id
		}
	}
}

// put records id, known to be absent, under hash h.
func (b *bucket) put(h uint64, id int32) {
	i := h
	for b.slots[i&slotMask].Load() != 0 {
		i++
	}
	b.slots[i&slotMask].Store(id + 1)
	b.n++
}

func (t *symtab) add(h uint64, s string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id := t.find(h, s); id >= 0 {
		return int64(id)
	}
	id := t.n
	if pages := *t.pages.Load(); id == len(pages)*pageSize {
		pages = append(pages, new(symPage))
		t.pages.Store(&pages)
	}
	*t.sym(int64(id)) = symbol{text: t.store(s), depth: labelDepth(s)}
	t.n++
	t.bytes += len(s)
	for {
		x := t.index.Load()
		if b := x.bucket(h); 2*(b.n+1) <= bucketSlots {
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
		if id := old.slots[i].Load() - 1; id >= 0 {
			moved := maphash.String(t.seed, t.sym(int64(id)).text)
			halves[moved>>(64-d)&1].put(moved, id)
		}
	}
	first := h >> (64 - old.depth) << (x.depth - old.depth)
	for i := first; i < first+1<<(x.depth-old.depth); i++ {
		x.dir[i].Store(halves[i>>(x.depth-d)&1])
	}
}

// store copies s into the table's text chunks. Callers hold mu.
func (t *symtab) store(s string) string {
	if len(s) > textChunk/16 {
		return strings.Clone(s)
	}
	if len(s) > len(t.free) {
		t.free = make([]byte, textChunk)
	}
	n := copy(t.free, s)
	text := unsafe.String(unsafe.SliceData(t.free), n)
	t.free = t.free[n:]
	return text
}

// labelDepth is the invention depth a null label records: n for a label
// "d<n>|…", the prefix of the Skolem labels the rules package writes, and 1
// for any other (a foreign null).
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

// SymbolStats reports the symbol table's size: the distinct texts it holds
// (string constants, null labels and the 8 bytes of each boxed int, "" included)
// and their bytes. Both only grow.
func SymbolStats() (count, textBytes int) {
	symbols.mu.Lock()
	defer symbols.mu.Unlock()
	return symbols.n, symbols.bytes
}
