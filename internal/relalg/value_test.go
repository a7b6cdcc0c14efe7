package relalg

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v        Value
		kind     Kind
		isNull   bool
		str      string
		rendered string
	}{
		{S("abc"), KindString, false, "abc", "abc"},
		{S(""), KindString, false, "", ""},
		{I(42), KindInt, false, "", "42"},
		{I(-7), KindInt, false, "", "-7"},
		{Null("n1"), KindNull, true, "n1", "⊥n1"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.IsNull() != c.isNull {
			t.Errorf("%v: IsNull = %v, want %v", c.v, c.v.IsNull(), c.isNull)
		}
		if c.v.IsConst() == c.isNull {
			t.Errorf("%v: IsConst should be inverse of IsNull", c.v)
		}
		if c.v.String() != c.rendered {
			t.Errorf("%v: String = %q, want %q", c.v, c.v.String(), c.rendered)
		}
	}
}

func TestValueEqualityAndKeys(t *testing.T) {
	if !S("x").Equal(S("x")) {
		t.Error("equal string constants must be Equal")
	}
	if S("1").Equal(I(1)) {
		t.Error("string '1' and int 1 must not be Equal (distinct kinds)")
	}
	if Null("a").Equal(Null("b")) {
		t.Error("distinct null labels must not be Equal")
	}
	if !Null("a").Equal(Null("a")) {
		t.Error("identical null labels must be Equal")
	}
	// Key must be injective across kinds.
	keys := map[string]Value{}
	for _, v := range []Value{S("1"), I(1), Null("1"), S("n1"), Null("n1"), S("")} {
		if prev, ok := keys[v.Key()]; ok {
			t.Fatalf("key collision between %v and %v", prev, v)
		}
		keys[v.Key()] = v
	}
}

func TestCompareAsNumericAndString(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{I(2), I(10), -1, true},
		{S("2"), S("10"), -1, true}, // both parse as ints: numeric
		{S("2"), I(10), -1, true},   // mixed: numeric
		{S("b"), S("a"), 1, true},   // plain strings
		{S("a"), I(1), 1, true},     // falls back to string compare of renderings
		{Null("x"), S("a"), 0, false},
		{Null("x"), Null("x"), 0, true},
		{Null("x"), Null("y"), 0, false},
	}
	for _, c := range cases {
		cmp, ok := CompareAs(c.a, c.b)
		if ok != c.ok {
			t.Errorf("CompareAs(%v,%v) ok=%v want %v", c.a, c.b, ok, c.ok)
			continue
		}
		if ok && sign(cmp) != c.cmp {
			t.Errorf("CompareAs(%v,%v) = %d want sign %d", c.a, c.b, cmp, c.cmp)
		}
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

func TestParseValueRoundTrip(t *testing.T) {
	values := []Value{S("hello"), S("it's"), S("123x"), I(99), I(-5), Null("r1_X_k0")}
	for _, v := range values {
		got, err := ParseValue(v.Quoted())
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", v.Quoted(), err)
		}
		if got != v {
			t.Errorf("round trip %v -> %q -> %v", v, v.Quoted(), got)
		}
	}
	if _, err := ParseValue(""); err == nil {
		t.Error("empty literal should fail")
	}
	if _, err := ParseValue("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := ParseValue("12ab"); err == nil {
		t.Error("garbage literal should fail")
	}
}

func TestParseValueQuotedQuotes(t *testing.T) {
	v, err := ParseValue("'a''b'")
	if err != nil {
		t.Fatal(err)
	}
	if v != S("a'b") {
		t.Errorf("got %v", v)
	}
}

func TestValueCompareTotalOrderProperties(t *testing.T) {
	gen := func(a, b int64, s1, s2 string, k1, k2 uint8) bool {
		v := pickValue(k1, a, s1)
		w := pickValue(k2, b, s2)
		// antisymmetry
		if sign(v.Compare(w)) != -sign(w.Compare(v)) {
			return false
		}
		// reflexivity / consistency with equality
		if (v.Compare(w) == 0) != (v.Key() == w.Key()) {
			return false
		}
		return true
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func pickValue(k uint8, n int64, s string) Value {
	switch k % 3 {
	case 0:
		return S(s)
	case 1:
		return I(n)
	default:
		return Null(s)
	}
}

// TestValueCarriesItsHash pins what carrying a symbol id instead of the text
// must not change: the zero value is still the empty string, equal texts are
// still == however they were built, Int is 0 for non-ints, and the id is no
// part of any serialised form.
func TestValueCarriesItsHash(t *testing.T) {
	if (Value{}) != S("") || (Value{}).Hash() != S("").Hash() {
		t.Error("the zero Value is no longer S(\"\")")
	}
	if S("") == Null("") || S("").Hash() == Null("").Hash() {
		t.Error("S(\"\") and Null(\"\") are conflated")
	}
	for _, text := range []string{"", "a", "Grace Hopper", strings.Repeat("3:sab", 40)} {
		built := strings.Join(strings.Split(text, ""), "") // equal text, separate bytes
		for name, pair := range map[string][2]Value{"S": {S(text), S(built)}, "Null": {Null(text), Null(built)}} {
			if pair[0] != pair[1] || pair[0].Hash() != pair[1].Hash() {
				t.Errorf("%s(%q): equal texts give different values", name, text)
			}
			if pair[0].Int() != 0 {
				t.Errorf("%s(%q).Int() = %d, want 0", name, text, pair[0].Int())
			}
		}
		if S(text).Key() != "s"+text || Null(text).Key() != "n"+text {
			t.Errorf("Key of %q carries more than kind and text", text)
		}
	}
	if I(7).Int() != 7 || I(7).Hash() == I(8).Hash() || I(0).Hash() == S("").Hash() {
		t.Error("int payload or its hash is off")
	}

	// A decoded tuple is the tuple that was encoded: equal, and equal in hash,
	// though the bytes on the wire hold texts only.
	want := Tuple{S("Grace Hopper"), I(1952), Null("d1|r|V|3:sab"), S("")}
	wire := AppendTuple(nil, want)
	if len(wire) != 1+(2+12)+(2+2)+(2+12)+2 {
		t.Errorf("encoded tuple is %d bytes: something besides kind and text was written", len(wire))
	}
	r := NewReader(wire)
	got := r.Tuple()
	if r.Err() != nil || !got.Equal(want) || got.Hash() != want.Hash() {
		t.Errorf("decoded %v (hash %x), want %v (hash %x), err %v", got, got.Hash(), want, want.Hash(), r.Err())
	}
	var set TupleSet
	if set.Add(want); !set.Has(got) {
		t.Error("a decoded tuple is not found where its original was stored")
	}
}

// intBoundaries are the ints at the edges of a Value's inline range
// [-2^29, 2^29), of the wider inline range a 64-bit Value had, [-2^61, 2^61),
// and of int64: the first inlineBoundaries are inline, the rest boxed.
var intBoundaries = []int64{0, 1, -1, 1<<29 - 1, -1 << 29,
	1 << 29, -1<<29 - 1, 1<<61 - 1, -1 << 61, 1 << 61, -1<<61 - 1, math.MaxInt64, math.MinInt64}

const inlineBoundaries = 5

// TestValueIntBoundaries: an int is the same value, with the same bytes in
// every format, whether its Value holds it inline or boxed in the symbol
// table; the ints inside the inline range cost no symbol, and a new one
// outside it costs one.
func TestValueIntBoundaries(t *testing.T) {
	for _, c := range []struct {
		from, step int64
		symbols    int // the symbols I adds: 0 inline, 1 boxed
	}{{1<<29 - 1, -1, 0}, {-1 << 29, 1, 0}, {1 << 29, 1, 1}, {-1<<29 - 1, -1, 1}} {
		n := freshInt(c.from, c.step)
		before := SymbolStats().Texts
		v := I(n)
		if after := SymbolStats().Texts; v.Int() != n || after != before+c.symbols {
			t.Errorf("I(%d), new to the table, reads back %d and added %d symbols, want %d", n, v.Int(), after-before, c.symbols)
		}
	}
	for i, n := range intBoundaries {
		v := I(n)
		if v.Int() != n || v.Kind() != KindInt || v.IsNull() || v.Str() != "" {
			t.Errorf("I(%d) reads back %d of kind %v", n, v.Int(), v.Kind())
		}
		if inline := v.tag() == uint32(KindInt); inline != (i < inlineBoundaries) {
			t.Errorf("I(%d) is held inline: %v, want %v", n, inline, i < inlineBoundaries)
		}
		if v != I(n) || v.Hash() != I(n).Hash() {
			t.Errorf("I(%d) built twice gives two values", n)
		}
		var be [8]byte
		binary.BigEndian.PutUint64(be[:], uint64(n))
		if v == S(string(be[:])) || v == Null(string(be[:])) {
			t.Errorf("I(%d) is the string or null of its own 8 bytes", n)
		}
		if want := "i" + strconv.FormatInt(n, 10); v.Key() != want || (Tuple{v}).Key() != strconv.Itoa(len(want))+":"+want {
			t.Errorf("I(%d).Key() = %q, want %q", n, v.Key(), want)
		}
		if back, err := ParseValue(v.Quoted()); err != nil || back != v {
			t.Errorf("I(%d) -> %q -> %v, %v", n, v.Quoted(), back, err)
		}
		enc := AppendValue(nil, v)
		if m := v.EncodedSize(); UvarintSize(uint64(m))+m != len(enc) {
			t.Errorf("I(%d): EncodedSize %d, encoded %d bytes", n, m, len(enc))
		}
		r := NewReader(append([]byte{1}, enc...))
		if back := r.Tuple(); r.Err() != nil || len(back) != 1 || back[0] != v {
			t.Errorf("I(%d) decodes to %v, %v", n, back, r.Err())
		}
	}
	for _, a := range intBoundaries {
		for _, b := range intBoundaries {
			want := cmp.Compare(a, b)
			if got := sign(I(a).Compare(I(b))); got != want {
				t.Errorf("I(%d).Compare(I(%d)) = %d, want %d", a, b, got, want)
			}
			if got, ok := CompareAs(I(a), I(b)); !ok || sign(got) != want {
				t.Errorf("CompareAs(I(%d), I(%d)) = %d, %v, want %d", a, b, got, ok, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		ns := slices.Clone(intBoundaries)
		rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
		vs := make(Tuple, len(ns))
		for i, n := range ns {
			vs[i] = I(n)
		}
		slices.Sort(ns)
		slices.SortFunc(vs, Value.Compare)
		for i := range ns {
			if vs[i].Int() != ns[i] {
				t.Fatalf("sorted values %v, want the int64 order %v", vs, ns)
			}
		}
	}
}

// freshInt returns the first of n, n+step, n+2*step, ... whose 8 big-endian
// bytes the symbol table does not hold: an int whose boxing would add a
// symbol, however many times the test has run in this process.
func freshInt(n, step int64) int64 {
	for ; ; n += step {
		var be [8]byte
		binary.BigEndian.PutUint64(be[:], uint64(n))
		if symbols.find(maphash.String(symbols.seed, string(be[:])), string(be[:]), false) < 0 {
			return n
		}
	}
}
