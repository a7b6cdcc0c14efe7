package relalg

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"unsafe"
)

// The byte codec of values and tuples: one definition, here, for the WAL
// record (internal/wal) and the wire frame (internal/wire). The bytes are a
// format — a WAL directory written by any build replays under any other —
// and never change:
//
//	value   := uvarint(1+len(payload)) kind payload
//	           payload: zig-zag varint (int) | raw bytes (string, null label)
//	tuple   := uvarint(arity) value*
//	tuples  := uvarint(count) tuple*
//	string  := uvarint(len) bytes
//	strings := uvarint(count) string*
//
// A string is written as its text, read back from the symbol table, and
// decoded by interning the text where it lies in the input; a null is written
// as its label, rendered from its term, and decoded as Null decodes a label,
// in time and table space linear in it; an int is written as its number whether the Value
// holds it inline or boxed. The Append
// functions allocate nothing beyond growing b; nothing the Reader returns
// refers to its input, so a decoded value never keeps a frame or record alive.

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendStrings appends a counted list of strings.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendValue appends one value.
func AppendValue(b []byte, v Value) []byte {
	kind := v.Kind()
	if kind == KindInt {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], v.Int())
		b = append(b, byte(1+n), byte(KindInt))
		return append(b, buf[:n]...)
	}
	if kind == KindNull {
		b = binary.AppendUvarint(b, uint64(1+v.labelLen()))
		return v.appendLabel(append(b, byte(KindNull)))
	}
	text := v.text()
	b = binary.AppendUvarint(b, uint64(1+len(text)))
	b = append(b, byte(kind))
	return append(b, text...)
}

// AppendTuple appends one tuple.
func AppendTuple(b []byte, t Tuple) []byte {
	b = binary.AppendUvarint(b, uint64(len(t)))
	for _, v := range t {
		b = AppendValue(b, v)
	}
	return b
}

// AppendTuples appends a counted list of tuples.
func AppendTuples(b []byte, ts []Tuple) []byte {
	b = binary.AppendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = AppendTuple(b, t)
	}
	return b
}

// UvarintSize returns the length of v's uvarint encoding.
func UvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// StringSize returns the length AppendString writes for s.
func StringSize(s string) int { return UvarintSize(uint64(len(s))) + len(s) }

// TuplesSize returns the length AppendTuples writes for ts, without writing.
func TuplesSize(ts []Tuple) int {
	n := UvarintSize(uint64(len(ts)))
	for _, t := range ts {
		n += UvarintSize(uint64(len(t)))
		for _, v := range t {
			m := v.EncodedSize()
			n += UvarintSize(uint64(m)) + m
		}
	}
	return n
}

// EncodedSize returns the length of the value's kind byte and payload, for
// TuplesSize.
func (v Value) EncodedSize() int {
	if v.Kind() == KindInt {
		n := v.Int()
		return 1 + UvarintSize(uint64(n<<1)^uint64(n>>63)) // zig-zag
	}
	if v.IsNull() {
		return 1 + v.labelLen()
	}
	return 1 + len(v.text())
}

// ErrCorrupt reports input that is truncated or is not the encoding above.
var ErrCorrupt = errors.New("relalg: truncated or corrupt encoding")

// Reader decodes what the Append functions wrote. Its error is sticky: after
// the first failure every read returns a zero value, so a caller decodes a
// whole record field by field and checks Err once. Every count is checked
// against the bytes that remain before anything is allocated for it, so a
// short hostile buffer cannot cost a large allocation. Empty lists decode
// as nil.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads from b, which it never modifies or retains past its reads.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Fail makes the reader fail with err (unless it already has), for callers
// that find a well-formed field holding a value they cannot accept.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *Reader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.Fail(ErrCorrupt)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail(ErrCorrupt)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail(ErrCorrupt)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if raw := r.take(1); raw != nil {
		return raw[0]
	}
	return 0
}

// Count reads a list length and fails unless that many elements of at least
// min bytes each can still follow.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/min) {
		r.Fail(ErrCorrupt)
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.take(r.Uvarint())) }

// Bytes reads a length-prefixed byte string into memory of its own.
func (r *Reader) Bytes() []byte {
	raw := r.take(r.Uvarint())
	if len(raw) == 0 {
		return nil
	}
	return append([]byte(nil), raw...)
}

// Strs reads a counted list of strings.
func (r *Reader) Strs() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// Tuple reads one tuple. Its texts are interned straight from the input, so
// a tuple of known values costs its slice and nothing else.
func (r *Reader) Tuple() Tuple {
	n := r.Count(2) // a value is a length byte and a kind byte at least
	if n == 0 {
		return nil
	}
	t := make(Tuple, n)
	for i := range t {
		raw := r.take(r.Uvarint())
		if len(raw) == 0 {
			r.Fail(ErrCorrupt)
			return nil
		}
		switch kind := Kind(raw[0]); kind {
		case KindInt:
			num, read := binary.Varint(raw[1:])
			if read <= 0 || 1+read != len(raw) {
				r.Fail(ErrCorrupt)
				return nil
			}
			t[i] = I(num)
		case KindString:
			t[i] = sym(symbols.internBytes(raw[1:]), kind)
		case KindNull:
			t[i] = decodeNull(unsafe.String(unsafe.SliceData(raw[1:]), len(raw)-1))
		default:
			r.Fail(ErrCorrupt)
			return nil
		}
	}
	return t
}

// Tuples reads a counted list of tuples.
func (r *Reader) Tuples() []Tuple {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]Tuple, n)
	for i := range out {
		out[i] = r.Tuple()
	}
	return out
}
