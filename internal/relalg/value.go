// Package relalg provides the relational substrate of the P2P database
// network: typed values (constants and labelled nulls), tuples, schemas and
// relations with duplicate elimination, insertion order for delta extraction,
// and tuple-level homomorphism/subsumption checks used by the chase-style local
// update step.
//
// Tuples have two identities. In memory it is Tuple.Hash plus Tuple.Equal:
// TupleSet, the insertion-ordered set under every relation and dedup site,
// finds members by hash and verifies them by equality, without building a
// key. Serialised it is Tuple.Key, a canonical injective string that Skolem
// null labels embed; its bytes are a format and never change.
//
// A value's identity is one tagged 32-bit word, so a Value is 4 bytes with no
// pointer (the tag table is on Value). A string holds the id of its text in
// one process-wide, append-only symbol table (symtab.go). A null is a term
// (null.go): a Skolem null holds the id of its term in the same table — its
// depth, the ids of its rule and variable, the words of its binding — and a
// foreign null the id of its label's text. An int that fits in 30 signed bits
// is held inline; any other int is boxed: the id of its 8 big-endian bytes.
// Every value has exactly one word, so == and Tuple.Equal are integer
// compares, Value.Hash and Tuple.Hash are arithmetic over words, and the row
// chunks of a TupleSet are never scanned by the collector. The table holds
// each distinct text and term for the life of the process (SymbolStats
// reports its size), behind one pointer-free word of its own. Ids are never
// written anywhere: Key, AppendValue and the wire write the text, the number
// or the null's label — rendered from its term, never stored — and Null and
// the Reader parse a label back into its term, so every format is what it was
// when values held their strings.
//
// A tuple stored by Relation.Insert or TupleSet.Add is a copy: one row of
// arity values in a row chunk its set shares between many members, with no
// slice header of its own. It aliases nothing of the caller's, never moves
// and is never overwritten, so the views At, Since and All return (each a
// capacity-capped slice of its row) stay valid, unchanged, while the set
// grows, and keeping one view keeps its chunk (at most 8 KiB) reachable.
package relalg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"slices"
	"strconv"
	"strings"
)

// Kind discriminates the runtime type of a Value.
type Kind uint8

const (
	// KindString is a string constant.
	KindString Kind = iota
	// KindInt is a 64-bit integer constant.
	KindInt
	// KindNull is a labelled null (fresh value invented for an existential
	// head variable, as in data exchange). Nulls compare by label.
	KindNull
)

// Value is a single attribute value: a shared constant (string or int, the
// paper's URI assumption) or a labelled null. Values are built by S, I, Null
// and Skolem only. It is one word, payload<<2 | tag:
//
//	tag 0  string   symbol id of its text
//	tag 1  int      the int itself, when it lies in [-2^29, 2^29)
//	tag 2  null     symbol id of its term (a foreign null: of its label's text)
//	tag 3  int      boxed: symbol id of its 8 big-endian bytes
//
// A symbol id has 30 bits (the symbol table refuses more ids than that), and
// so has an inline int: years, counters and insert indexes are inline, a
// nanosecond clock reading is boxed.
//
// Each value has one word, so equal values are == whatever memory their text
// came from, a null is one word whether it was derived or decoded, and the zero Value is
// S("") (id 0 is ""). Value holds no pointer; TestValueIsPointerFree (the
// repository root) keeps it that way.
type Value struct {
	w uint32
}

const (
	tagBits  = 2
	tagMask  = 1<<tagBits - 1
	tagBoxed = 3 // an int outside the inline range

	minInline = -1 << (31 - tagBits) // the inline ints are [minInline, -minInline)
)

// sym builds a string or null from the symbol id of its text.
func sym(id int64, kind Kind) Value { return Value{w: uint32(id)<<tagBits | uint32(kind)} }

// tag returns the word's low bits.
func (v Value) tag() uint32 { return v.w & tagMask }

// id returns the symbol id of a string, a null or a boxed int.
func (v Value) id() int64 { return int64(v.w >> tagBits) }

// text returns the text of a string constant or a boxed int's bytes.
func (v Value) text() string { return symbols.text(v.id()) }

// String returns a display rendering: bare text for string constants,
// decimal for ints, and "⊥label" for nulls. Long Skolem labels are shortened
// to a stable digest for readability; Quoted keeps the full label, and
// identity always uses the full label.
func (v Value) String() string {
	switch v.Kind() {
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindNull:
		label := v.label()
		if len(label) > 24 {
			h := fnv.New32a()
			_, _ = h.Write([]byte(label))
			return fmt.Sprintf("⊥%s…%08x", label[:strings.IndexByte(label+"|", '|')], h.Sum32())
		}
		return "⊥" + label
	default:
		return v.text()
	}
}

// Quoted renders the value in surface syntax: single-quoted strings with
// internal quotes doubled, bare integers, and ⊥-prefixed null labels.
func (v Value) Quoted() string {
	switch v.Kind() {
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindNull:
		return "⊥" + v.label()
	default:
		return "'" + strings.ReplaceAll(v.text(), "'", "''") + "'"
	}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind {
	if t := v.tag(); t != tagBoxed {
		return Kind(t)
	}
	return KindInt
}

// IsNull reports whether v is a labelled null.
func (v Value) IsNull() bool { return v.tag() == uint32(KindNull) }

// IsConst reports whether v is a constant (string or int).
func (v Value) IsConst() bool { return !v.IsNull() }

// Str returns the string payload (string constant text or null label); ""
// for an int.
func (v Value) Str() string {
	switch v.Kind() {
	case KindInt:
		return ""
	case KindNull:
		return v.label()
	}
	return v.text()
}

// Int returns the integer payload; zero unless KindInt.
func (v Value) Int() int64 {
	switch v.tag() {
	case uint32(KindInt):
		return int64(int32(v.w)) >> tagBits
	case tagBoxed:
		return int64(binary.BigEndian.Uint64([]byte(v.text())))
	}
	return 0
}

// NullLabel returns the label of a null value, or "" for constants.
func (v Value) NullLabel() string {
	if v.IsNull() {
		return v.label()
	}
	return ""
}

// NullDepth returns the invention depth a null's label records — n for a
// Skolem label "d<n>|…", 1 for a foreign label — which a term holds and a
// foreign label is parsed for; 0 for a constant.
func (v Value) NullDepth() int {
	if !v.IsNull() {
		return 0
	}
	return v.nullDepth()
}

// S builds a string-constant Value. It interns s: a text seen before costs a
// lookup and no allocation; a new one is copied into the symbol table.
func S(s string) Value { return sym(symbols.intern(s), KindString) }

// I builds an integer-constant Value: inline when n lies in the inline range,
// else boxed, interning its 8 big-endian bytes as S interns a text.
func I(n int64) Value {
	if n >= minInline && n < -minInline {
		return Value{w: uint32(n)<<tagBits | uint32(KindInt)}
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	return Value{w: uint32(symbols.internBytes(b[:]))<<tagBits | tagBoxed}
}

// Null builds the labelled null with the given label: the Skolem term whose
// rendering it is, if the table keeps that term as one (null.go), or a
// foreign null interned as S interns. label is not retained, and a known
// null allocates nothing.
func Null(label string) Value { return decodeNull(label) }

// Equal reports exact equality (same kind and payload). Two nulls are equal
// iff their labels are equal: one label is one term or one text.
func (v Value) Equal(w Value) bool { return v == w }

// Compare orders values deterministically: by kind (string < int < null),
// then payload. Integers compare numerically, strings and null labels
// lexicographically. Used for canonical rendering and sorted output, not for
// semantic built-ins (see CompareAs).
func (v Value) Compare(w Value) int {
	if vk, wk := v.Kind(), w.Kind(); vk != wk {
		return int(vk) - int(wk)
	}
	switch {
	case v == w:
		return 0
	case v.Kind() == KindInt:
		if v.Int() < w.Int() {
			return -1
		}
		return 1
	case v.Kind() == KindNull:
		var a, b [128]byte
		return bytes.Compare(v.appendLabel(a[:0]), w.appendLabel(b[:0]))
	default:
		return strings.Compare(v.text(), w.text())
	}
}

// CompareAs performs the semantic comparison used by built-in predicates.
// Integers compare numerically; a string that parses as an integer compares
// numerically with an int; otherwise string comparison of renderings is used.
// Comparisons involving nulls report ok=false (unknown) except equality of
// identical nulls.
func CompareAs(v, w Value) (cmp int, ok bool) {
	if v.IsNull() || w.IsNull() {
		if v == w {
			return 0, true
		}
		return 0, false
	}
	vi, vIsInt := asInt(v)
	wi, wIsInt := asInt(w)
	if vIsInt && wIsInt {
		switch {
		case vi < wi:
			return -1, true
		case vi > wi:
			return 1, true
		}
		return 0, true
	}
	return strings.Compare(v.String(), w.String()), true
}

func asInt(v Value) (int64, bool) {
	switch v.Kind() {
	case KindInt:
		return v.Int(), true
	case KindString:
		if n, err := strconv.ParseInt(v.text(), 10, 64); err == nil {
			return n, true
		}
	}
	return 0, false
}

// Key returns a canonical encoding of the value as a string. The encoding
// is injective across kinds.
func (v Value) Key() string {
	switch v.Kind() {
	case KindInt:
		return "i" + strconv.FormatInt(v.Int(), 10)
	case KindNull:
		return "n" + v.label()
	default:
		return "s" + v.text()
	}
}

// appendKey appends the value's component of Tuple.Key: the decimal length
// of Key(), a colon, then Key() itself.
func (v Value) appendKey(b []byte) []byte {
	if !v.IsNull() {
		return v.appendConstKey(b)
	}
	n := v.keyLen()
	b = slices.Grow(b, n)
	v.putKey(b[len(b) : len(b)+n])
	return b[:len(b)+n]
}

// appendConstKey is appendKey for a string or an int.
func (v Value) appendConstKey(b []byte) []byte {
	if v.Kind() == KindInt {
		var digits [20]byte
		d := strconv.AppendInt(digits[:0], v.Int(), 10)
		b = strconv.AppendInt(b, int64(len(d)+1), 10)
		b = append(b, ':', 'i')
		return append(b, d...)
	}
	text := v.text()
	b = strconv.AppendInt(b, int64(len(text)+1), 10)
	b = append(b, ':', 's')
	return append(b, text...)
}

// keyLen returns the length appendKey writes, without writing it.
func (v Value) keyLen() int {
	var n int // the length of Key()
	switch v.Kind() {
	case KindInt:
		n = 1 + decimalLen(v.Int())
	case KindNull:
		n = 1 + v.labelLen()
	default:
		n = 1 + len(v.text())
	}
	return decimalLen(int64(n)) + 1 + n
}

// hashMix is the process's random share of every Value and Tuple hash.
var hashMix = maphash.String(maphash.MakeSeed(), "relalg")

// Hash returns a process-local 64-bit hash of the value, consistent with ==
// (equal values hash equally). It is arithmetic on the word, whose tag keeps
// S("1"), I(1) and Null("1") apart; the multiply spreads its 32 bits over all
// 64, which Tuple.Hash and a TupleSet's home slots and tags read.
func (v Value) Hash() uint64 {
	h := uint64(v.w) ^ hashMix
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// ParseValue parses the surface syntax produced by Quoted: single-quoted
// strings, decimal integers, or ⊥label nulls.
func ParseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return Value{}, fmt.Errorf("relalg: empty value literal")
	case strings.HasPrefix(s, "'"):
		if len(s) < 2 || !strings.HasSuffix(s, "'") {
			return Value{}, fmt.Errorf("relalg: unterminated string literal %q", s)
		}
		body := s[1 : len(s)-1]
		return S(strings.ReplaceAll(body, "''", "'")), nil
	case strings.HasPrefix(s, "⊥"):
		return Null(strings.TrimPrefix(s, "⊥")), nil
	default:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relalg: bad value literal %q", s)
		}
		return I(n), nil
	}
}
