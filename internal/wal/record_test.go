package wal

import (
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// encodeInsert is one insert record on its own, as the store's insert
// listener encodes each tuple of a run.
func encodeInsert(rel string, seq uint64, t relalg.Tuple) []byte {
	return appendInsertRecord(nil, rel, seq, t)
}

// TestRecordGolden pins the payload bytes of every record kind that carries
// strings, values or tuples. The hex was produced by the encoders as they
// stood before the value/tuple codec moved into package relalg (commit
// 1536d09): equal bytes are what keeps a DataDir written by either build
// readable by the other.
func TestRecordGolden(t *testing.T) {
	st := State{Epoch: 5,
		Subs: []SubState{{Dependent: "B", RuleID: "r1", Epoch: 4, Conj: "A:a(X,Y)", Cols: []string{"X", "Y"},
			Marks: storage.Marks{"b": 300, "a": 12}, Primed: true}, {Dependent: "C", Marks: storage.Marks{}}},
		Parts: []PartState{{RuleID: "r2", Part: "C", Cols: []string{"X"},
			Tuples: []relalg.Tuple{{relalg.S("v"), relalg.I(-9)}, {relalg.Null("d1|r|V|k")}}}}}
	sch := relalg.Schema{Name: "pub", Attrs: []string{"k", "y", "n"}}
	tup := relalg.Tuple{relalg.S("conf/edbt/f04"), relalg.I(2004), relalg.Null("n|1")}
	for _, c := range []struct {
		name, want string
		got        []byte
	}{
		{"schema", "010370756203016b0179016e", encodeSchema(sch)},
		{"insert", "0203707562ac02030e00636f6e662f656462742f6630340301a81f04026e7c31", encodeInsert("pub", 300, tup)},
		{"marks", "070201420272310408413a6128582c592902015801590201610c0162ac02010143000000000000", encodeSubMarks(st.Subs)},
		{"parts", "080272320143010158020202007602011101090264317c727c567c6b", encodePartDelta(st.Parts[0])},
		{"state", "0301050201420272310408413a6128582c592902015801590201610c0162ac02010143000000000000" +
			"010272320143010158020202007602011101090264317c727c567c6b", encodeState(st, true)},
		{"sync point", "094d", encodeSyncPoint(77)},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s record encodes to\n  %s, pinned\n  %s", c.name, got, c.want)
		}
	}

	// And back: the same bytes decode to the same records.
	r := relalg.NewReader(encodeInsert("pub", 300, tup)[1:])
	if rel, seq, back := decodeInsert(&r); r.Err() != nil || rel != "pub" || seq != 300 || !back.Equal(tup) {
		t.Errorf("insert decodes to %s/%d/%v (err %v)", rel, seq, back, r.Err())
	}
	r = relalg.NewReader(encodeState(st, true)[1:])
	back, clean := decodeState(&r)
	st.Subs[1].Cols = nil // an empty list decodes as nil
	if r.Err() != nil || r.Len() != 0 || !clean || !reflect.DeepEqual(back, st) {
		t.Errorf("state decodes to %+v (clean %v, err %v), want %+v", back, clean, r.Err(), st)
	}
	got, err := UnmarshalState(MarshalState(st))
	if err != nil || !reflect.DeepEqual(got, st) {
		t.Errorf("MarshalState round trip: %+v (err %v), want %+v", got, err, st)
	}
	if _, err := UnmarshalState(MarshalState(st)[:9]); err == nil {
		t.Error("UnmarshalState accepted a truncated blob")
	}
}
