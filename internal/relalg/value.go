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
// A value's identity is a symbol id. S and Null look their text up in one
// process-wide, append-only symbol table (symtab.go) and keep the id of that
// text in the field an int keeps its number in, so a Value is 16 bytes with no
// pointer: == and Tuple.Equal are integer compares, Value.Hash and Tuple.Hash
// are arithmetic over the id, and the row chunks of a TupleSet are never
// scanned by the collector. The table holds each distinct text for the life of
// the process (SymbolStats reports its size). Ids are never written anywhere:
// Key, AppendValue and the wire write the text, read back from the table, and
// Reader interns what it decodes, so every format is what it was when values
// held their strings.
//
// A tuple stored by Relation.Insert or TupleSet.Add is a copy: one row of
// arity values in a row chunk its set shares between many members, with no
// slice header of its own. It aliases nothing of the caller's, never moves
// and is never overwritten, so the views At, Since and All return (each a
// capacity-capped slice of its row) stay valid, unchanged, while the set
// grows, and keeping one view keeps its chunk (at most 16 KiB) reachable.
package relalg

import (
	"fmt"
	"hash/fnv"
	"hash/maphash"
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
// and NullBytes only. For a string or a null, num is the symbol id of its text
// (see the package doc): the same text is the same id at every call, so equal
// values are == whatever memory their text came from, S(x) and Null(x) differ
// by kind alone, and the zero Value is S("") (id 0 is ""). Value holds no
// pointer; TestValueIsPointerFree (the repository root) keeps it that way.
type Value struct {
	num  int64 // the int constant; for strings and nulls, the symbol id of the text
	kind Kind
}

// text returns the text of a string constant or null label.
func (v Value) text() string { return symbols.sym(v.num).text }

// String returns a display rendering: bare text for string constants,
// decimal for ints, and "⊥label" for nulls. Long Skolem labels are shortened
// to a stable digest for readability; Quoted keeps the full label, and
// identity always uses the full label.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindNull:
		label := v.text()
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
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindNull:
		return "⊥" + v.text()
	default:
		return "'" + strings.ReplaceAll(v.text(), "'", "''") + "'"
	}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is a labelled null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsConst reports whether v is a constant (string or int).
func (v Value) IsConst() bool { return v.kind != KindNull }

// Str returns the string payload (string constant text or null label); ""
// for an int.
func (v Value) Str() string {
	if v.kind == KindInt {
		return ""
	}
	return v.text()
}

// Int returns the integer payload; zero unless KindInt.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return v.num
}

// NullLabel returns the label of a null value, or "" for constants.
func (v Value) NullLabel() string {
	if v.kind == KindNull {
		return v.text()
	}
	return ""
}

// NullDepth returns the invention depth a null's label records — n for a
// Skolem label "d<n>|…", 1 for a foreign label — read from the symbol table,
// which parsed it when the label was first interned; 0 for a constant.
func (v Value) NullDepth() int {
	if v.kind != KindNull {
		return 0
	}
	return symbols.sym(v.num).depth
}

// S builds a string-constant Value. It interns s: a text seen before costs a
// lookup and no allocation; a new one is copied into the symbol table.
func S(s string) Value { return Value{num: symbols.intern(s), kind: KindString} }

// I builds an integer-constant Value.
func I(n int64) Value { return Value{num: n, kind: KindInt} }

// Null builds a labelled null with the given label, interned as S interns.
func Null(label string) Value { return Value{num: symbols.intern(label), kind: KindNull} }

// NullBytes is Null for a label held in a byte slice, which it does not
// retain: the caller may reuse the buffer, and a known label allocates
// nothing.
func NullBytes(label []byte) Value { return Value{num: symbols.internBytes(label), kind: KindNull} }

// Equal reports exact equality (same kind and payload). Two nulls are equal
// iff their labels are equal.
func (v Value) Equal(w Value) bool { return v == w }

// Compare orders values deterministically: by kind (string < int < null),
// then payload. Integers compare numerically, strings and null labels
// lexicographically. Used for canonical rendering and sorted output, not for
// semantic built-ins (see CompareAs).
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		return int(v.kind) - int(w.kind)
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.num < w.num:
			return -1
		case v.num > w.num:
			return 1
		}
		return 0
	default:
		if v.num == w.num {
			return 0
		}
		return strings.Compare(v.text(), w.text())
	}
}

// CompareAs performs the semantic comparison used by built-in predicates.
// Integers compare numerically; a string that parses as an integer compares
// numerically with an int; otherwise string comparison of renderings is used.
// Comparisons involving nulls report ok=false (unknown) except equality of
// identical nulls.
func CompareAs(v, w Value) (cmp int, ok bool) {
	if v.kind == KindNull || w.kind == KindNull {
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
	if v.kind == KindInt {
		return v.num, true
	}
	if v.kind == KindString {
		if n, err := strconv.ParseInt(v.text(), 10, 64); err == nil {
			return n, true
		}
	}
	return 0, false
}

// Key returns a canonical encoding of the value as a string. The encoding
// is injective across kinds.
func (v Value) Key() string {
	switch v.kind {
	case KindInt:
		return "i" + strconv.FormatInt(v.num, 10)
	case KindNull:
		return "n" + v.text()
	default:
		return "s" + v.text()
	}
}

// appendKey appends the value's component of Tuple.Key: the decimal length
// of Key(), a colon, then Key() itself.
func (v Value) appendKey(b []byte) []byte {
	tag := byte('s')
	switch v.kind {
	case KindInt:
		var digits [20]byte
		d := strconv.AppendInt(digits[:0], v.num, 10)
		b = strconv.AppendInt(b, int64(len(d)+1), 10)
		b = append(b, ':', 'i')
		return append(b, d...)
	case KindNull:
		tag = 'n'
	}
	text := v.text()
	b = strconv.AppendInt(b, int64(len(text)+1), 10)
	b = append(b, ':', tag)
	return append(b, text...)
}

// hashMix is the process's random share of every Value and Tuple hash.
var hashMix = maphash.String(maphash.MakeSeed(), "relalg")

// Hash returns a process-local 64-bit hash of the value, consistent with ==
// (equal values hash equally). It is arithmetic on num — a symbol id for a
// string or null — with the kind added in the top byte, so S("1"), I(1) and
// Null("1") differ and small ids never meet small ints.
func (v Value) Hash() uint64 {
	h := (uint64(v.num) + uint64(v.kind)<<56) ^ hashMix
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
