package relalg

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestCodecGolden pins the bytes: they are what WAL directories on disk and
// peers on the wire hold, and equal what Value.MarshalBinary behind a length
// prefix produced before this codec replaced it.
func TestCodecGolden(t *testing.T) {
	ts := []Tuple{
		{S("ab"), I(-9), Null("d1|r")},
		{S(""), I(0), I(1 << 40)},
		nil,
	}
	const want = "03" + // three tuples
		"03" + "03006162" + "020111" + "050264317c72" +
		"03" + "0100" + "020100" + "0701808080808040" +
		"00"
	got := AppendTuples(nil, ts)
	if hex.EncodeToString(got) != want {
		t.Fatalf("tuples encode to %x, pinned %s", got, want)
	}
	r := NewReader(got)
	if back := r.Tuples(); r.Err() != nil || r.Len() != 0 || !reflect.DeepEqual(back, ts) {
		t.Fatalf("decoded %v (err %v, %d bytes left), want %v", back, r.Err(), r.Len(), ts)
	}
	if got := AppendStrings(nil, []string{"x", ""}); hex.EncodeToString(got) != "02017800" {
		t.Fatalf("strings encode to %x", got)
	}
	for _, v := range append(ts[0], ts[1]...) {
		if n := len(AppendValue(nil, v)) - 1; n != v.EncodedSize() {
			t.Errorf("%v: EncodedSize %d, encoded payload %d", v, v.EncodedSize(), n)
		}
	}
	if n := TuplesSize(ts); n != len(got) {
		t.Errorf("TuplesSize %d, encoded %d", n, len(got))
	}
}

// TestReaderOwnsItsBytes: a decoded tuple must not alias the buffer it was
// read from — transports and the WAL reuse theirs.
func TestReaderOwnsItsBytes(t *testing.T) {
	want := Tuple{S("hello"), Null("lbl"), I(7)}
	buf := AppendTuple(nil, want)
	r := NewReader(buf)
	got := r.Tuple()
	for i := range buf {
		buf[i] = 0xff
	}
	if !got.Equal(want) {
		t.Fatalf("tuple changed with its source buffer: %v", got)
	}
}

func TestReaderRejects(t *testing.T) {
	for name, data := range map[string][]byte{
		"count past the end":    {200, 1, 0},
		"value length past end": {1, 9, 0, 'a'},
		"empty value":           {1, 0},
		"unknown value kind":    {1, 1, 7},
		"int with trailing":     {1, 3, 1, 2, 0},
		"int unterminated":      {1, 2, 1, 0x80},
		"truncated":             AppendTuple(nil, Tuple{S("abc")})[:3],
	} {
		r := NewReader(data)
		if got := r.Tuple(); !errors.Is(r.Err(), ErrCorrupt) || got != nil {
			t.Errorf("%s: got %v, err %v", name, got, r.Err())
		}
		if r.Uvarint() != 0 || r.Str() != "" || r.Tuples() != nil {
			t.Errorf("%s: reads after a failure must return zero values", name)
		}
	}
}

// FuzzTupleCodec: arbitrary bytes either fail to decode or decode to tuples
// that survive a further encode/decode unchanged; nothing panics.
func FuzzTupleCodec(f *testing.F) {
	f.Add(AppendTuples(nil, []Tuple{{S("ab"), I(-9), Null("d1|r")}, {I(1 << 62)}, nil}))
	f.Add(AppendTuples(nil, []Tuple{{I(math.MinInt64), I(math.MaxInt64), I(1 << 61), I(-1 << 61), I(1 << 29), I(-1<<29 - 1)}}))
	f.Add([]byte{1, 200, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		ts := r.Tuples()
		if r.Err() != nil {
			return
		}
		enc := AppendTuples(nil, ts)
		r2 := NewReader(enc)
		if back := r2.Tuples(); r2.Err() != nil || r2.Len() != 0 || !reflect.DeepEqual(back, ts) {
			t.Fatalf("re-decoded %v (err %v), want %v", back, r2.Err(), ts)
		}
		if !bytes.Equal(AppendTuples(nil, ts), enc) {
			t.Fatal("encoding is not deterministic")
		}
	})
}
