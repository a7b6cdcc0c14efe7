package relalg

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
)

// A Skolem null is a term: the null invented at depth n for the existential
// variable V of rule R under the binding (v1, …, vk) of R's export
// variables. Its label, which every format carries, is
//
//	d<n>|<R>|<V>|<Tuple{v1, …, vk}.Key()>
//
// (TestSkolemLabelGolden pins it). The symbol table keeps the term, not the
// label: a key of varints — n zig-zagged, the symbol ids of R's and V's
// texts, then the word of each binding value — so a term of three values
// takes about a dozen bytes where its label took ~90, and a nested null is
// the word of its own term. The label is rendered, recursively, wherever one
// is read (labelLen, putLabel); nothing keeps a rendering.
//
// One label is one Value however it arrived. Skolem interns a term from its
// parts; Null and the Reader check a label's syntax first, interning nothing
// (checkTerm), and decode it into its term only when it is that term's
// rendering, byte for byte. Any other label is a foreign null: a text in the
// table, whose depth labelDepth reads. The table keeps a term only for a
// depth in [1, maxTermDepth] whose nested nulls are all of lower depth, as
// the chase's are, so no recursion through a term goes deeper than
// maxTermDepth; Skolem keeps any other null, and one whose rule id or
// variable holds '|' (its label would parse as another term), by its label,
// as a decoder would.

// maxTermDepth is the deepest null kept as a term. A term's nested nulls are
// all of lower depth, so rendering, measuring or decoding one recurses at
// most this deep, however long a received label is; a deeper null is kept by
// its label, as a foreign one is. The chase's depth bound is 4 by default.
const maxTermDepth = 64

// Skolem returns the null invented at depth for the existential variable
// variable of rule rule, both string constants, under binding. A known null
// costs a lookup and no allocation.
func Skolem(depth int, rule, variable Value, binding Tuple) Value {
	if !termParts(depth, rule.text(), variable.text(), binding) {
		label := append(strconv.AppendInt([]byte{'d'}, int64(depth), 10), '|')
		label = append(append(append(append(label, rule.text()...), '|'), variable.text()...), '|')
		return Null(string(binding.AppendKey(label)))
	}
	var key [64]byte
	return sym(symbols.internTerm(appendTerm(key[:0], int64(depth), rule.id(), variable.id(), binding)), KindNull)
}

// termParts reports whether the null of these parts is kept as a term, by
// the rule checkTerm reads off its label: depth is in [1, maxTermDepth],
// every null in binding is of lower depth, and neither rule nor variable
// holds '|' (its label would parse as another term).
func termParts(depth int, rule, variable string, binding Tuple) bool {
	if depth < 1 || depth > maxTermDepth || strings.IndexByte(rule, '|') >= 0 || strings.IndexByte(variable, '|') >= 0 {
		return false
	}
	for _, v := range binding {
		if v.IsNull() && v.nullDepth() >= depth {
			return false
		}
	}
	return true
}

// appendTerm appends the key of a term.
func appendTerm(b []byte, depth, rule, variable int64, binding Tuple) []byte {
	b = binary.AppendVarint(b, depth)
	b = binary.AppendUvarint(b, uint64(rule))
	b = binary.AppendUvarint(b, uint64(variable))
	for _, v := range binding {
		b = binary.AppendUvarint(b, uint64(v.w))
	}
	return b
}

// term is a term read from its key; words holds the binding values' words.
type term struct {
	depth          int64
	rule, variable string
	words          string
}

func readTerm(key string) term {
	var t term
	var u uint64
	t.depth, key = varint(key)
	u, key = uvarint(key)
	t.rule = symbols.text(int64(u))
	u, t.words = uvarint(key)
	t.variable = symbols.text(int64(u))
	return t
}

// nextWord returns the first binding value of words and the words after it.
func nextWord(words string) (Value, string) {
	w, rest := uvarint(words)
	return Value{w: uint32(w)}, rest
}

// varint reads a zig-zag varint this package wrote into a key.
func varint(s string) (int64, string) {
	u, rest := uvarint(s)
	return int64(u>>1) ^ -int64(u&1), rest
}

// uvarint reads a varint this package wrote into a key.
func uvarint(s string) (uint64, string) {
	var x uint64
	for shift := 0; ; shift += 7 {
		c := s[0]
		s = s[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, s
		}
	}
}

// appendLabel appends the label of a null: a foreign null's text, or the
// rendering of a term.
func (v Value) appendLabel(b []byte) []byte {
	n := v.labelLen()
	b = slices.Grow(b, n)
	v.putLabel(b[len(b) : len(b)+n])
	return b[:len(b)+n]
}

// labelLen returns the length of a null's label: a text's length, or the
// length its term's symbol holds, measured when the term was added.
func (v Value) labelLen() int {
	s := symbols.sym(v.id())
	switch {
	case !s.term():
		return len(symbols.bytesOf(s))
	case s.labelLen() != labelUnknown:
		return s.labelLen()
	}
	return termLabelLen(symbols.bytesOf(s))
}

// termLabelLen measures the label of the term whose key is key, without
// rendering it.
func termLabelLen(key string) int {
	t := readTerm(key)
	n := 1 + decimalLen(t.depth) + 1 + len(t.rule) + 1 + len(t.variable) + 1
	for w := t.words; w != ""; {
		var x Value
		x, w = nextWord(w)
		n += x.keyLen()
	}
	return n
}

// putLabel writes a null's label into dst, which is labelLen long. The
// rendering writes into room measured beforehand, with no append, so the
// recursion through nested nulls never makes a caller's buffer escape.
func (v Value) putLabel(dst []byte) {
	s := symbols.sym(v.id())
	if !s.term() {
		copy(dst, symbols.bytesOf(s))
		return
	}
	t := readTerm(symbols.bytesOf(s))
	dst[0] = 'd'
	i := 1 + len(strconv.AppendInt(dst[1:1], t.depth, 10))
	for _, part := range [...]string{t.rule, t.variable} {
		dst[i] = '|'
		i += 1 + copy(dst[i+1:], part)
	}
	dst[i] = '|'
	i++
	for w := t.words; w != ""; {
		var x Value
		x, w = nextWord(w)
		n := x.keyLen()
		x.putKey(dst[i : i+n])
		i += n
	}
}

// putKey writes the value's component of Tuple.Key into dst, which is
// keyLen long.
func (v Value) putKey(dst []byte) {
	if !v.IsNull() {
		v.appendConstKey(dst[:0])
		return
	}
	n := v.labelLen()
	i := len(strconv.AppendInt(dst[:0], int64(n+1), 10))
	dst[i], dst[i+1] = ':', 'n'
	v.putLabel(dst[i+2:])
}

// label returns a null's label: the text itself for a foreign null, a fresh
// rendering for a term.
func (v Value) label() string {
	if s := symbols.sym(v.id()); !s.term() {
		return symbols.bytesOf(s)
	}
	var stack [128]byte
	return string(v.appendLabel(stack[:0]))
}

// nullDepth is NullDepth for a null: its term's depth, or labelDepth of a
// foreign label.
func (v Value) nullDepth() int {
	s := symbols.sym(v.id())
	if !s.term() {
		return labelDepth(symbols.bytesOf(s))
	}
	depth, _ := varint(symbols.bytesOf(s))
	return int(depth)
}

// decimalLen returns the length of n in decimal.
func decimalLen(n int64) int {
	var digits [20]byte
	return len(strconv.AppendInt(digits[:0], n, 10))
}

// decodeNull returns the null whose label is label: its term if label is the
// rendering of a term the table keeps (checkTerm), else the foreign null of
// that text. A label that is no such rendering interns nothing but itself.
// One that is interns its parts — texts, boxed ints, nested nulls, decoded
// the same way — and its key, each no longer than its bytes in the label
// plus a few, and the recursion through nested labels, each of lower depth,
// goes at most maxTermDepth deep. The key is built in a buffer of this call's
// own, so the recursion never makes a caller's buffer escape. label is read
// only for the length of the call.
func decodeNull(label string) Value {
	depth, rule, variable, keys, ok := checkTerm(label)
	if !ok {
		return sym(symbols.intern(label), KindNull)
	}
	var key [64]byte
	b := binary.AppendVarint(key[:0], depth)
	b = binary.AppendUvarint(b, uint64(symbols.intern(rule)))
	b = binary.AppendUvarint(b, uint64(symbols.intern(variable)))
	for keys != "" {
		var tag byte
		var payload string
		tag, payload, keys, _ = component(keys)
		var v Value
		switch tag {
		case 's':
			v = S(payload)
		case 'i':
			n, _ := canonicalInt(payload)
			v = I(n)
		default:
			v = decodeNull(payload)
		}
		b = binary.AppendUvarint(b, uint64(v.w))
	}
	return sym(symbols.internTerm(b), KindNull)
}

// checkTerm reads label as the rendering of a term the table keeps, interning
// nothing, and returns the term's depth, rule, variable and binding keys. It
// accepts exactly what putLabel writes for a term Skolem keeps (termParts):
// "d<depth>|<rule>|<variable>|", the depth a canonical decimal (no '+', no
// leading zero, no "-0") in [1, maxTermDepth], a rule and a variable ending
// at the first '|'; then binding keys "<n>:<tag><payload>", n canonical and
// exactly the length of what follows, each an 's' text, an 'i' canonical
// decimal or an 'n' null label whose labelDepth is below depth. A nested
// label is read no further: it is a term or a foreign null in its own right.
func checkTerm(label string) (depth int64, rule, variable, keys string, ok bool) {
	rest, ok := strings.CutPrefix(label, "d")
	var parts [3]string // depth, rule, variable
	for i := range parts {
		j := strings.IndexByte(rest, '|')
		if !ok || j < 0 {
			return 0, "", "", "", false
		}
		parts[i], rest = rest[:j], rest[j+1:]
	}
	depth, ok = canonicalInt(parts[0])
	if !ok || depth < 1 || depth > maxTermDepth {
		return 0, "", "", "", false
	}
	for k := rest; k != ""; {
		tag, payload, after, ok := component(k)
		switch {
		case !ok:
			return 0, "", "", "", false
		case tag == 'i':
			if _, ok := canonicalInt(payload); !ok {
				return 0, "", "", "", false
			}
		case tag == 'n':
			if labelDepth(payload) >= int(depth) {
				return 0, "", "", "", false
			}
		case tag != 's':
			return 0, "", "", "", false
		}
		k = after
	}
	return depth, parts[1], parts[2], rest, true
}

// component splits the first binding key "<n>:<tag><payload>" off keys.
func component(keys string) (tag byte, payload, rest string, ok bool) {
	c := strings.IndexByte(keys, ':')
	if c < 0 {
		return 0, "", "", false
	}
	n, ok := canonicalInt(keys[:c])
	if !ok || n < 1 || n > int64(len(keys)-c-1) {
		return 0, "", "", false
	}
	end := c + 1 + int(n)
	return keys[c+1], keys[c+2 : end], keys[end:], true
}

// canonicalInt parses s if it is a decimal as strconv.AppendInt writes it.
func canonicalInt(s string) (int64, bool) {
	if len(s) > len("-9223372036854775808") {
		return 0, false // and ParseInt copies no long input into its error
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	var digits [20]byte
	return n, string(strconv.AppendInt(digits[:0], n, 10)) == s
}
