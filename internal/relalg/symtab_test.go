package relalg

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestSymbolTableOneIDPerText: eight goroutines intern overlapping texts, as
// strings and as byte slices, into a table that starts at its smallest room
// and grows several times under them; every fifth text is too long to share a
// chunk and gets one of its own meanwhile. Every goroutine gets the same id
// for a text, distinct texts get distinct ids, and every id reads back its
// text while the table grows. Then the same through S, Null and boxed ints on
// the process's table. Run it with -race.
func TestSymbolTableOneIDPerText(t *testing.T) {
	const workers, texts, each = 8, 12000, 6000
	tab := newSymtab()
	ids := make([][]int64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		ids[g] = make([]int64, texts)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				i := (g*texts/workers + k) % texts
				text := fmt.Sprintf("text-%d", i)
				if i%5 == 0 {
					text += strings.Repeat("x", textChunk/16+i%300)
				}
				id := tab.intern(text)
				if k%2 == 1 {
					id = tab.internBytes([]byte(text))
				}
				if got := tab.text(id); got != text {
					t.Errorf("id %d reads %q, want %q", id, got, text)
					return
				}
				ids[g][i] = id + 1
			}
		}(g)
	}
	wg.Wait()
	owner := map[int64]int{}
	for i := 0; i < texts; i++ {
		var id int64
		for g := range ids {
			switch {
			case ids[g][i] == 0:
			case id == 0:
				id = ids[g][i]
			case ids[g][i] != id:
				t.Fatalf("text-%d has ids %d and %d", i, id-1, ids[g][i]-1)
			}
		}
		if prev, ok := owner[id]; ok {
			t.Fatalf("text-%d and text-%d share id %d", prev, i, id-1)
		}
		owner[id] = i
	}
	if depth := tab.index.Load().depth; tab.n != texts+1 || depth < 3 || len(*tab.pages.Load()) < 2 {
		t.Errorf("table holds %d symbols, want %d; its directory has depth %d, want at least three doublings", tab.n, texts+1, depth)
	}

	// The process's table, through the constructors: texts, and ints outside
	// the inline range, whose 8 bytes are interned as a text is.
	vals := make([][]Value, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*250 + i) % 3000
				text := fmt.Sprintf("spec-%d", k)
				v := S(text)
				if i%2 == 1 {
					v = Null(text)
				}
				if v.Str() != text {
					t.Errorf("%s reads back %q", text, v.Str())
					return
				}
				n := int64(math.MaxInt64 - k)
				if i%2 == 1 {
					n = math.MinInt64 + int64(k)
				}
				if boxed := I(n); boxed.Int() != n {
					t.Errorf("I(%d) reads back %d", n, boxed.Int())
					return
				}
				vals[g] = append(vals[g], v, I(n))
			}
		}(g)
	}
	wg.Wait()
	for g := range vals {
		for _, v := range vals[g] {
			if v != S(v.Str()) && v != Null(v.Str()) && v != I(v.Int()) {
				t.Fatalf("%s built by goroutine %d is not the value its text or number builds now", v.Quoted(), g)
			}
		}
	}
}

// TestSymbolIdentity pins what the symbol id must not change about a value.
func TestSymbolIdentity(t *testing.T) {
	for _, x := range []string{"", "a", "Grace Hopper", "d1|r|V|3:sab", strings.Repeat("x", 1000)} {
		if S(x) == Null(x) {
			t.Errorf("S(%q) == Null(%q)", x, x)
		}
		if S(x) != S(strings.Clone(x)) || Null(x) != Null(strings.Clone(x)) {
			t.Errorf("%q built from two copies gives two values", x)
		}
		if S(x).Str() != x || Null(x).NullLabel() != x || S(x).NullLabel() != "" {
			t.Errorf("%q does not read back", x)
		}
	}
	if (Value{}) != S("") || (Value{}).Str() != "" || I(0).Str() != "" {
		t.Error("the zero Value is no longer S(\"\")")
	}
	fresh := "symbol-stats"
	for i := 0; symbols.find(maphash.String(symbols.seed, fresh), fresh, false) >= 0; i++ {
		fresh = fmt.Sprintf("symbol-stats-%d", i) // -count=N reruns in one process
	}
	before := SymbolStats()
	S(fresh)
	Null(fresh)
	if got, want := SymbolStats(), (SymbolCounts{Texts: before.Texts + 1, TextBytes: before.TextBytes + len(fresh), Nulls: before.Nulls, NullBytes: before.NullBytes}); got != want {
		t.Errorf("one new text moved SymbolStats from %+v to %+v, want %+v", before, got, want)
	}
}

// TestSymbolTableGrowsInSmallSteps: a decode that interns a new text pays
// for that text, and at most one small growth step of the table — a page, a
// text chunk, a bucket split, a directory doubling — never a rebuild of the
// whole table. FuzzDecodeEnvelope allows a decode 64 bytes per input byte
// plus 64 KiB; here ten thousand fresh texts (twenty pages, dozens of splits)
// must each decode within 32 KiB.
func TestSymbolTableGrowsInSmallSteps(t *testing.T) {
	var before, after runtime.MemStats
	worst := uint64(0)
	for i := 0; i < 10000; i++ {
		// The frame is built by hand: encoding S(text) would intern it first.
		text := fmt.Sprintf("growth-%d-%d", i, time.Now().UnixNano())
		frame := binary.AppendUvarint(nil, 1)
		frame = binary.AppendUvarint(frame, uint64(1+len(text)))
		frame = append(append(frame, byte(KindString)), text...)
		runtime.ReadMemStats(&before)
		r := NewReader(frame)
		sinkTuple = r.Tuple()
		runtime.ReadMemStats(&after)
		if r.Err() != nil || sinkTuple[0].Str() != text {
			t.Fatalf("decoded %v, %v; want %q", sinkTuple, r.Err(), text)
		}
		worst = max(worst, after.TotalAlloc-before.TotalAlloc)
	}
	if worst > 32<<10 {
		t.Errorf("one decode of a new text allocated %d bytes", worst)
	}
}

var (
	sinkValue Value
	sinkTuple Tuple
	sinkInt   int64
)

// TestInternedValuesAllocateNothing: a known text costs a lookup — S of a
// string, Null of a known label (a term's and a foreign one), I of a boxed
// int — and a decoded tuple of known values costs its slice.
func TestInternedValuesAllocateNothing(t *testing.T) {
	text, label, foreign := "conf/edbt/Kementsietsidis04", "d2|r7|Id|13:sconf/edbt/045:i2004", "d02|r7"
	known := Tuple{S(text), I(2004), Null(label), S(""), Null(foreign)}
	if allocs := testing.AllocsPerRun(100, func() { sinkValue = S(text) }); allocs != 0 {
		t.Errorf("S of a known text: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkValue = Null(label) }); allocs != 0 {
		t.Errorf("Null of a known term's label: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkValue = Null(foreign) }); allocs != 0 {
		t.Errorf("Null of a known foreign label: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkInt = I(math.MinInt64).Int() }); allocs != 0 {
		t.Errorf("a known boxed int built and read back: %.0f allocations, want 0", allocs)
	}
	wire := AppendTuple(nil, known)
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(wire)
		sinkTuple = r.Tuple()
	}); allocs != 1 || !sinkTuple.Equal(known) {
		t.Errorf("Reader.Tuple of known values: %.0f allocations, want 1 (the tuple)", allocs)
	}
}

// TestSymbolFootprint: a symbol costs its text and about 17 bytes besides.
// Summed over pages, text chunks and the index's buckets (at the size class
// the allocator hands out) and directory, 100 000 fresh 16-byte texts hold at
// most 33.5 bytes per symbol (32.7-33.0 when written: 16 the text, 8 the
// symbol, 8.6-8.9 the index's ~420 buckets). Buckets that split at half full
// and took a 2 304-byte class came to 36.0 (512 buckets, 12.0 the index); a
// symbol holding a string header and a depth spent 24 bytes on the page and
// came to 50.8.
func TestSymbolFootprint(t *testing.T) {
	const n = 100000
	tab := newSymtab()
	var text []byte
	for i := 0; i < n; i++ {
		text = strconv.AppendInt(append(text[:0], "footprint-"...), n+int64(i), 10) // 16 bytes
		tab.internBytes(text)
	}
	if per := float64(tableBytes(tab)) / n; per > 33.5 {
		t.Errorf("%d 16-byte texts hold %.2f bytes per symbol; want at most 33.5", n, per)
	}
}

// tableBytes sums what a table holds: its pages, text chunks, the index's
// buckets (at the size class the allocator hands out) and directory.
func tableBytes(tab *symtab) int {
	pages, chunks, x := *tab.pages.Load(), *tab.chunks.Load(), tab.index.Load()
	bytes := len(pages)*int(unsafe.Sizeof(symPage{})) + cap(pages)*int(unsafe.Sizeof(&symPage{}))
	bytes += cap(chunks) * int(unsafe.Sizeof([]byte(nil)))
	for _, c := range chunks {
		bytes += cap(c)
	}
	buckets := map[*bucket]bool{}
	for i := range x.dir {
		buckets[x.dir[i].Load()] = true
	}
	return bytes + len(buckets)*allocated(func() { sinkBucket = new(bucket) }) + cap(x.dir)*int(unsafe.Sizeof(x.dir[0]))
}

var sinkBucket *bucket

// allocated returns the bytes the allocator hands out for one call of alloc:
// its size class, not the size of the type it allocates.
func allocated(alloc func()) int {
	const calls = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		alloc()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / calls
}

// TestSymbolBucketIsOneSizeClass: a bucket, its count and its depth are
// exactly 2 KiB, a size class of the allocator, so a bucket costs what its
// fields hold. A word-sized count would make it 2 064 bytes, which the
// allocator hands out as 2 304.
func TestSymbolBucketIsOneSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(bucket{}); size != 2048 {
		t.Errorf("a bucket is %d bytes, want 2048", size)
	}
}

// TestSymbolIndexLoad: after each of ten thousand interns into a fresh
// table, every bucket holds at most 3/4 of its slots; two buddy buckets of
// equal depth hold more than 3/4 of a bucket between them, since a bucket
// splits only when one more id would put it over 3/4; every id sits in the
// bucket its hash's prefix picks, under its hash's tag, and a probe from its
// home slot reaches it without passing an empty slot. Every bucket's slots
// are walked after a split; otherwise an intern only filled one empty slot,
// and the new id's probe is walked.
func TestSymbolIndexLoad(t *testing.T) {
	tab := newSymtab()
	hashes := []uint64{maphash.String(tab.seed, "")}
	buckets := 1
	for i := 0; i < 10000; i++ {
		text, id := fmt.Sprintf("load-%d", i), int32(len(hashes))
		if got := tab.intern(text); got != int64(id) {
			t.Fatalf("%q got id %d, want %d", text, got, id)
		}
		h := maphash.String(tab.seed, text)
		hashes = append(hashes, h)
		x := tab.index.Load()
		held, count := 0, 0
		for e := 0; e < len(x.dir); e++ {
			b := x.dir[e].Load()
			if 4*int(b.n) > 3*bucketSlots {
				t.Fatalf("after %d interns a bucket holds %d of %d slots", i+1, b.n, bucketSlots)
			}
			span := 1 << (x.depth - b.depth)
			if e%span != 0 {
				continue // a bucket is checked at the first of its entries
			}
			if b.depth > 0 {
				if buddy := x.dir[e^span].Load(); buddy.depth == b.depth && 4*(int(b.n)+int(buddy.n)) <= 3*bucketSlots {
					t.Fatalf("after %d interns two buddy buckets of depth %d hold %d and %d ids of %d slots each", i+1, b.depth, b.n, buddy.n, bucketSlots)
				}
			}
			held += int(b.n)
			count++
		}
		if held != len(hashes) {
			t.Fatalf("after %d interns the buckets hold %d ids, want %d", i+1, held, len(hashes))
		}
		if count == buckets {
			b, s := x.bucket(h), home(h)
			for ; slotID(b.slots[s].Load()) != id; s = (s + 1) % bucketSlots {
				if b.slots[s].Load() == 0 {
					t.Fatalf("id %d is not reached from its home slot %d without passing an empty slot", id, home(h))
				}
			}
			if tag := b.slots[s].Load() &^ slotIDMask; tag != slotTag(h) {
				t.Fatalf("id %d sits under tag %#x, its hash's tag is %#x", id, tag, slotTag(h))
			}
			continue
		}
		buckets = count
		for e := 0; e < len(x.dir); e += 1 << (x.depth - x.dir[e].Load().depth) {
			checkBucket(t, x, x.dir[e].Load(), hashes)
		}
	}

	// The tag is hash bits that pick neither the bucket nor the home slot,
	// so about one in four pairs of ids that share both share the tag; a tag
	// taken from the prefix bits would be shared by every pair.
	type place struct {
		b    *bucket
		home int
	}
	tags := map[place]*[4]int{}
	x := tab.index.Load()
	for _, h := range hashes {
		p := place{x.bucket(h), home(h)}
		if tags[p] == nil {
			tags[p] = new([4]int)
		}
		tags[p][slotTag(h)>>idBits]++
	}
	pairs, same := 0, 0
	for _, c := range tags {
		n := c[0] + c[1] + c[2] + c[3]
		pairs += n * (n - 1) / 2
		for _, k := range c {
			same += k * (k - 1) / 2
		}
	}
	if 2*same > pairs {
		t.Errorf("%d of %d pairs of ids that share a bucket and a home slot share the tag too", same, pairs)
	}
}

// checkBucket checks that every id in b belongs there by its hash's prefix,
// sits under its hash's tag and is reached from its home slot with no empty
// slot in between, and that b counts the ids it holds.
func checkBucket(t *testing.T, x *index, b *bucket, hashes []uint64) {
	t.Helper()
	start := 0 // an empty slot, which no probe run passes
	for b.slots[start].Load() != 0 {
		start++
	}
	held, empty := 0, start // empty: the last empty slot the walk passed
	for k := 1; k <= bucketSlots; k++ {
		i := (start + k) % bucketSlots
		e := b.slots[i].Load()
		id := slotID(e)
		if id < 0 {
			empty = i
			continue
		}
		held++
		h := hashes[id]
		if x.bucket(h) != b {
			t.Fatalf("id %d sits in a bucket its hash prefix does not pick", id)
		}
		if e&^slotIDMask != slotTag(h) {
			t.Fatalf("id %d sits under tag %#x, its hash's tag is %#x", id, e&^slotIDMask, slotTag(h))
		}
		// The run from the last empty slot up to i holds no empty slot, so
		// the id is reachable if its home lies in that run.
		if run, dist := (i-empty+bucketSlots)%bucketSlots, (i-home(h)+bucketSlots)%bucketSlots; dist >= run {
			t.Fatalf("id %d sits in slot %d, past an empty slot on the probe from its home %d", id, i, home(h))
		}
	}
	if held != int(b.n) {
		t.Fatalf("a bucket counts %d ids and holds %d", b.n, held)
	}
}

// TestSymbolIsOneWord: a symbol is one 8-byte word with no pointer, so a page
// of 512 is 4 KiB that the collector never scans.
func TestSymbolIsOneWord(t *testing.T) {
	if typ := reflect.TypeOf(symPage{}); typ.Elem().Kind() != reflect.Uint64 || typ.Size() != 4<<10 {
		t.Errorf("a symbol page is %d bytes of %s, want 4 KiB of pointer-free words", typ.Size(), typ.Elem().Kind())
	}
}

// TestSymbolDepthIsTheLabelParse: the depth a null reads back is labelDepth
// of its label, whether the depth lives in a term or is parsed from a
// foreign label: no term's rendering (too few fields, a non-canonical
// number, a bad binding key), or the rendering of a null the table keeps by
// its label (a depth outside [1, maxTermDepth], every depth an int64 holds,
// negative ones included, or a nested null not of lower depth). The symbol
// word holds no depth.
func TestSymbolDepthIsTheLabelParse(t *testing.T) {
	for _, c := range []struct {
		label string
		term  bool
	}{
		{"d1|r|V|", true}, {"d4|r|V|2:sa", true}, {"d64|r|V|", true}, {"d2|r|V|8:nd1|r|V|", true},
		{"d0|r|V|", false}, {"d65|r|V|", false}, {"d254|r|V|", false}, {"d255|r|V|", false},
		{"d70000|r|V|5:i2004", false}, {"d-1|r|V|", false}, {"d9223372036854775807|||", false},
		{"d1|r|V|8:nd1|r|V|", false}, {"d2|r|V|9:nd+2|r|V|", false},
		{"d0|", false}, {"d4|", false}, {"d254|x", false}, {"d65535|", false}, {"d70000|", false},
		{"d-1|", false}, {"dx|", false}, {"foreign", false}, {"", false}, {"d99999999999999999999|x", false},
		{"d01|r|V|", false}, {"d+1|r|V|", false}, {"d-0|r|V|", false}, {"d1|r|V|3:sa", false}, {"d1|r|V|2:xa", false},
		{"d1|r|V|3:i07", false}, {"d1|r|V|02:sa", false}, {"d1|r|V|2:sa1", false},
	} {
		v := Null(c.label)
		if got, want := v.NullDepth(), labelDepth(c.label); got != want {
			t.Errorf("Null(%q).NullDepth() = %d, the label parse says %d", c.label, got, want)
		}
		if term := symbols.sym(v.id()).term(); term != c.term || v.NullLabel() != c.label {
			t.Errorf("Null(%q): a term %v, want %v; reads back %q", c.label, term, c.term, v.NullLabel())
		}
	}
}

// TestLongTextLeavesTheActiveChunk: a text too long to share a chunk gets one
// of its own, and the texts interned around it still share the chunk they
// were filling; a long text made the active chunk abandons the small texts'
// chunk after each long one.
func TestLongTextLeavesTheActiveChunk(t *testing.T) {
	tab := newSymtab()
	long := strings.Repeat("L", textChunk/16+1)
	a, l, b := tab.intern("small-a"), tab.intern(long), tab.intern("small-b")
	if tab.text(a) != "small-a" || tab.text(l) != long || tab.text(b) != "small-b" {
		t.Fatalf("texts read back %q, %d bytes, %q", tab.text(a), len(tab.text(l)), tab.text(b))
	}
	if ca, cl, cb := tab.sym(a).chunk(), tab.sym(l).chunk(), tab.sym(b).chunk(); ca != cb || cl == ca {
		t.Errorf("small texts in chunks %d and %d around a long one in chunk %d; want the small ones to share theirs", ca, cb, cl)
	}
	if chunks := len(*tab.chunks.Load()); chunks != 2 {
		t.Errorf("%d chunks, want 2: the small texts' and the long text's", chunks)
	}
}

// TestSymbolTableFull: the table hands out ids up to maxSymbols-1, the
// largest a Value's 30-bit payload holds and a slot holds as id+1 beside its
// tag, and then refuses a new text with a panic that says why, while every
// text it holds still resolves. The table is a private one whose count is set
// just below the limit, its missing pages all one shared page.
func TestSymbolTableFull(t *testing.T) {
	tab := newSymtab()
	known := tab.intern("known")
	pages := make([]*symPage, (maxSymbols-1)>>pageBits+1)
	pages[0] = (*tab.pages.Load())[0]
	shared := new(symPage)
	for i := 1; i < len(pages); i++ {
		pages[i] = shared
	}
	tab.pages.Store(&pages)
	tab.n = maxSymbols - 1

	last := tab.intern("last")
	if last != maxSymbols-1 || tab.text(last) != "last" || tab.intern("last") != last {
		t.Fatalf("the last id is %d reading %q, want %d reading \"last\"", last, tab.text(last), maxSymbols-1)
	}
	if v := sym(last, KindNull); v.id() != last || !v.IsNull() {
		t.Errorf("a Value holding id %d reads back id %d of kind %v", last, v.id(), v.Kind())
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.HasPrefix(msg, "relalg: symbol table full") {
				t.Errorf("a text past the last id: panic %q, want \"relalg: symbol table full\"", msg)
			}
		}()
		tab.intern("one too many")
	}()
	if tab.intern("known") != known || tab.intern("last") != last || tab.intern("") != 0 || tab.n != maxSymbols {
		t.Errorf("a full table lost a text or grew: %d symbols", tab.n)
	}
}
