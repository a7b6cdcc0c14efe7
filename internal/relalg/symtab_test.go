package relalg

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSymbolTableOneIDPerText: eight goroutines intern overlapping texts, as
// strings and as byte slices, into a table that starts at its smallest room
// and grows several times under them; every goroutine gets the same id for a
// text, distinct texts get distinct ids, and every id reads back its text
// while the table grows. Then the same through S, Null, NullBytes and boxed
// ints on the process's table. Run it with -race.
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
				id := tab.intern(text)
				if k%2 == 1 {
					id = tab.internBytes([]byte(text))
				}
				if got := tab.sym(id).text; got != text {
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
					if i%4 == 3 {
						v = NullBytes([]byte(text))
					}
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
		if S(x) != S(strings.Clone(x)) || Null(x) != NullBytes([]byte(x)) {
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
	for i := 0; symbols.find(maphash.String(symbols.seed, fresh), fresh) >= 0; i++ {
		fresh = fmt.Sprintf("symbol-stats-%d", i) // -count=N reruns in one process
	}
	before, bytes := SymbolStats()
	S(fresh)
	Null(fresh)
	if n, b := SymbolStats(); n != before+1 || b != bytes+len(fresh) {
		t.Errorf("one new text moved SymbolStats from (%d, %d) to (%d, %d)", before, bytes, n, b)
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
// string, NullBytes of a reused buffer, I of a boxed int — and a decoded tuple
// of known values costs its slice.
func TestInternedValuesAllocateNothing(t *testing.T) {
	text, label := "conf/edbt/Kementsietsidis04", []byte("d2|r7|Id|13:sconf/edbt/045:i2004")
	known := Tuple{S(text), I(2004), NullBytes(label), S("")}
	if allocs := testing.AllocsPerRun(100, func() { sinkValue = S(text) }); allocs != 0 {
		t.Errorf("S of a known text: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkValue = NullBytes(label) }); allocs != 0 {
		t.Errorf("NullBytes of a known label: %.0f allocations, want 0", allocs)
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
