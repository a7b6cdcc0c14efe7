package relalg

import (
	"encoding/binary"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNullFootprint: a Skolem null costs its packed term and what any symbol
// costs besides, never its label. Ten thousand fresh terms of three binding
// values (a string the table already holds and two inline ints) hold at most
// 32 bytes each in a table of their own — pages, text chunks, the index's
// buckets at the allocator's size class and its directory — besides their
// binding values (23.9 when written: 8.6 the key, where the label is 36
// bytes). Re-deriving a known null allocates nothing.
func TestNullFootprint(t *testing.T) {
	const n = 10000
	tab := newSymtab()
	rule, variable, venue := S("r7"), S("Id"), S("conf/edbt")
	var key [64]byte
	for i := 0; i < n; i++ {
		binding := Tuple{venue, I(int64(i)), I(int64(1990 + i%30))}
		tab.internTerm(appendTerm(key[:0], 1, rule.id(), variable.id(), binding))
	}
	if tab.terms != n || tab.n != n+1 {
		t.Fatalf("the table holds %d terms of %d symbols, want %d of %d", tab.terms, tab.n, n, n+1)
	}
	if per := float64(tableBytes(tab)) / n; per > 32 {
		t.Errorf("%d terms of three values hold %.2f bytes each (keys %.2f); want at most 32", n, per, float64(tab.termBytes)/n)
	}

	binding := Tuple{venue, I(7), I(2007)}
	known := Skolem(1, rule, variable, binding)
	if allocs := testing.AllocsPerRun(100, func() { sinkValue = Skolem(1, rule, variable, binding) }); allocs != 0 || sinkValue != known {
		t.Errorf("re-deriving a known null: %.0f allocations, want 0", allocs)
	}
}

// TestOneNullPerTerm: eight goroutines intern the same Skolem terms — a third
// through Skolem as the chase does, a third by Null of their labels and a
// third by the Reader decoding a frame that holds the label — while the fresh
// terms split the index's buckets under them. A third of the terms nest a
// depth-1 null, built the same three ways. Each term gets exactly one Value,
// distinct terms distinct Values, and each Value renders its label and
// reports its depth. Run it with -race.
func TestOneNullPerTerm(t *testing.T) {
	const workers, terms, each = 8, 6000, 3000
	stamp := time.Now().UnixNano() // fresh terms on every run in the process
	rule, variable, word := S("r-one"), S("V"), S("one")
	keyOf := func(tag byte, payload string) string {
		return strconv.Itoa(len(payload)+1) + ":" + string(tag) + payload
	}
	intKey := func(n int64) string { return keyOf('i', strconv.FormatInt(n, 10)) }
	inner := func(i int) string { return "d1|r-one|V|" + intKey(stamp) + intKey(int64(i)) }
	label := func(i int) string {
		if i%3 == 0 {
			return "d2|r-one|V|" + keyOf('n', inner(i)) + intKey(int64(i))
		}
		return "d1|r-one|V|" + intKey(stamp) + intKey(int64(i)) + keyOf('s', "one")
	}
	decode := func(l string) Value {
		frame := binary.AppendUvarint([]byte{1}, uint64(1+len(l)))
		frame = append(append(frame, byte(KindNull)), l...)
		r := NewReader(frame)
		tu := r.Tuple()
		if r.Err() != nil || len(tu) != 1 {
			t.Errorf("decoding %q: %v, %v", l, tu, r.Err())
			return Value{}
		}
		return tu[0]
	}
	build := func(i, way int) Value {
		switch way {
		case 0:
			if i%3 == 0 {
				nested := Skolem(1, rule, variable, Tuple{I(stamp), I(int64(i))})
				return Skolem(2, rule, variable, Tuple{nested, I(int64(i))})
			}
			return Skolem(1, rule, variable, Tuple{I(stamp), I(int64(i)), word})
		case 1:
			return Null(label(i))
		}
		return decode(label(i))
	}

	got := make([][]Value, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		got[g] = make([]Value, terms)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				i := (g*terms/workers + k) % terms
				got[g][i] = build(i, (g+k)%3)
			}
		}(g)
	}
	wg.Wait()
	owner := map[Value]int{}
	for i := 0; i < terms; i++ {
		var v Value
		for g := range got {
			switch w := got[g][i]; {
			case w == Value{}:
			case v == Value{}:
				v = w
			case w != v:
				t.Fatalf("term %d is two values: %s and %s", i, v.Quoted(), w.Quoted())
			}
		}
		if prev, ok := owner[v]; ok {
			t.Fatalf("terms %d and %d share the value %s", prev, i, v.Quoted())
		}
		owner[v] = i
		depth := 1
		if i%3 == 0 {
			depth = 2
		}
		if !v.IsNull() || v.NullLabel() != label(i) || v.NullDepth() != depth || !symbols.sym(v.id()).term() {
			t.Fatalf("term %d reads %s at depth %d, want the term of %q at depth %d", i, v.Quoted(), v.NullDepth(), label(i), depth)
		}
	}
}

// FuzzNullLabel: any bytes are a null's label. Null(l) renders l again; its
// depth is labelDepth(l), whether l is a term's rendering or a foreign label;
// and AppendValue then the Reader, or Tuple.Key, give back that very Value
// and those bytes. The seeds are TestSkolemLabelGolden's labels and foreign,
// nested, non-canonical and truncated ones.
func FuzzNullLabel(f *testing.F) {
	for _, l := range []string{
		"d2|r7|Id|13:sconf/edbt/045:i200413:nd1|r0|Z|2:sa", "d1|r0|Z|2:sa", "d1|r|V|",
		"foreign", "", "n|1", "d1|r", "d4|deep", "d|x", "d99999999999999999999|x",
		"d3|r|V|29:nd2|r|V|14:nd1|r|V|2:sx5:i2004",
		"d01|r|V|", "d+1|r|V|", "d-0|r|V|", "d1|r|V|02:sa", "d1|r|V|3:i07", "d1|r|V|2:xa", "d1|r|V|8:nd01|||",
		"d2|r7|Id|13:sconf/edbt/045:i200413:nd1|r0|Z|2:s", "d2|r7|Id|13:sconf", "d1|r|V|3:",
	} {
		f.Add(l)
	}
	f.Fuzz(func(t *testing.T, l string) {
		v := Null(l)
		if !v.IsNull() || v.NullLabel() != l {
			t.Fatalf("Null(%q) reads back %q", l, v.NullLabel())
		}
		if got, want := v.NullDepth(), labelDepth(l); got != want {
			t.Fatalf("Null(%q).NullDepth() = %d, the label parse says %d", l, got, want)
		}
		enc := AppendValue(nil, v)
		r := NewReader(append([]byte{1}, enc...))
		if back := r.Tuple(); r.Err() != nil || r.Len() != 0 || len(back) != 1 || back[0] != v {
			t.Fatalf("Null(%q) written and read back is %v (err %v)", l, back, r.Err())
		}
		if len(enc)-UvarintSize(uint64(1+len(l))) != v.EncodedSize() || v.Key() != "n"+l {
			t.Fatalf("Null(%q): EncodedSize %d of %d bytes, Key %q", l, v.EncodedSize(), len(enc), v.Key())
		}
	})
}

// TestSkolemIsItsLabelsNull: the null Skolem interns is the one its label
// decodes to, also for a rule or variable holding '|', whose label parses as
// another term (Skolem interns such a null by its label), and for labels too
// long for a symbol to hold their length, which are measured again; the
// encoded size is the label's.
func TestSkolemIsItsLabelsNull(t *testing.T) {
	nested := Skolem(1, S("r"), S("V"), Tuple{S("a|b")})
	long := Skolem(1, S("r"), S("V"), Tuple{S(strings.Repeat("x", labelUnknown))})
	for _, c := range []struct {
		rule, variable string
		first          Value
	}{{"r", "V", nested}, {"r|s", "V", nested}, {"r", "V|W", nested}, {"", "", nested}, {"r", "V", long}} {
		binding := Tuple{c.first, I(-7), S("x|y"), I(1 << 40)}
		label := "d2|" + c.rule + "|" + c.variable + "|" + binding.Key()
		got := Skolem(2, S(c.rule), S(c.variable), binding)
		if got != Null(label) || got.NullLabel() != label || got.NullDepth() != 2 || got.EncodedSize() != 1+len(label) {
			t.Errorf("Skolem(2, %q, %q) = %s at depth %d, size %d; Null of its label is %s", c.rule, c.variable, got.Quoted(), got.NullDepth(), got.EncodedSize(), Null(label).Quoted())
		}
	}
	if l := long.NullLabel(); len(l) <= labelUnknown || symbols.sym(long.id()).labelLen() != labelUnknown {
		t.Errorf("a %d-byte label: its symbol holds length %d", len(l), symbols.sym(long.id()).labelLen())
	}

	// The table keeps a term only at a depth in [1, maxTermDepth] above the
	// depth of every null it nests; Skolem keeps any other null by its
	// label, the foreign null Null decodes it to.
	for _, c := range []struct {
		depth   int
		binding Tuple
		term    bool
	}{
		{maxTermDepth, Tuple{Null("d63|x")}, true}, {maxTermDepth + 1, Tuple{I(1)}, false},
		{0, Tuple{I(1)}, false}, {-3, Tuple{I(1)}, false},
		{1, Tuple{nested}, false}, {2, Tuple{Skolem(2, S("r"), S("V"), Tuple{I(2)})}, false},
		{2, Tuple{Null("d7|foreign")}, false}, {8, Tuple{Null("d7|foreign"), nested}, true},
	} {
		label := "d" + strconv.Itoa(c.depth) + "|r|V|" + c.binding.Key()
		got := Skolem(c.depth, S("r"), S("V"), c.binding)
		if got != Null(label) || got.NullLabel() != label || got.NullDepth() != c.depth || symbols.sym(got.id()).term() != c.term {
			t.Errorf("Skolem(%d) over %s = %s (a term: %v, want %v); Null of its label is %s",
				c.depth, c.binding.Key(), got.Quoted(), symbols.sym(got.id()).term(), c.term, Null(label).Quoted())
		}
	}
}

// TestDeepLabelIsLinear: decoding a received label, however deeply its
// nulls nest, adds at most a few times its length to the symbol table and
// recurses no deeper than maxTermDepth. A label that is no term's rendering
// adds exactly its own bytes, also when every level but the outermost would
// parse; one that is a term adds its parts and keys.
func TestDeepLabelIsLinear(t *testing.T) {
	stamp := strconv.FormatInt(time.Now().UnixNano(), 36) // fresh texts on every run in the process
	keyOf := func(tag byte, payload string) string {
		return strconv.Itoa(len(payload)+1) + ":" + string(tag) + payload
	}
	// nest wraps levels labels, the k-th of depth depth(k), each around the
	// last and a fresh text, with tail after each nested label.
	nest := func(levels int, depth func(k int) int, tail string) string {
		l := "d1|r|V|" + keyOf('s', stamp+"-0")
		for k := 1; k < levels; k++ {
			l = "d" + strconv.Itoa(depth(k)) + "|r|V|" + keyOf('n', l) + tail + keyOf('s', stamp+"-"+strconv.Itoa(k))
		}
		return l
	}
	rising := func(k int) int { return k + 1 }
	for _, c := range []struct {
		name  string
		label string
		term  bool
	}{
		{"deepest term", nest(maxTermDepth, rising, ""), true},
		{"one level too deep", nest(maxTermDepth+1, rising, ""), false},
		{"rising depths", nest(3000, rising, ""), false},
		{"a stray byte after each nested label", nest(3000, rising, "!"), false},
		{"no level deeper than the one it nests", nest(3000, func(int) int { return 5 }, ""), false},
		{"a shallow term over a deep foreign label", "d6|r|V|" + keyOf('n', nest(3000, func(int) int { return 5 }, "")), true},
	} {
		before := SymbolStats()
		frame := binary.AppendUvarint([]byte{1}, uint64(1+len(c.label)))
		r := NewReader(append(append(frame, byte(KindNull)), c.label...))
		tu := r.Tuple()
		after := SymbolStats()
		if r.Err() != nil || len(tu) != 1 || tu[0] != Null(c.label) || tu[0].NullLabel() != c.label {
			t.Fatalf("%s: decoding the %d-byte label gives %v (err %v)", c.name, len(c.label), tu, r.Err())
		}
		if term := symbols.sym(tu[0].id()).term(); term != c.term {
			t.Errorf("%s: a term %v, want %v", c.name, term, c.term)
		}
		grew := after.TextBytes - before.TextBytes + after.NullBytes - before.NullBytes
		if grew > 2*len(c.label) || !c.term && grew != len(c.label) {
			t.Errorf("%s: a %d-byte label added %d text and %d term bytes", c.name, len(c.label),
				after.TextBytes-before.TextBytes, after.NullBytes-before.NullBytes)
		}
	}
}
