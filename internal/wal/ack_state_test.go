package wal

import (
	"testing"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// Tests for the acknowledgment-handshake records: marks-only frontier records
// (recSubMarks) and incremental part records (recPartDelta) must survive a
// crash — that is the whole point of appending them between checkpoints — and
// must be superseded by a later full state record.

func ackSubs(seq uint64) []SubState {
	return []SubState{{
		Dependent: "H", RuleID: "r", Epoch: 1,
		Conj: "s(X)", Cols: []string{"X"},
		Marks: storage.Marks{"s": seq}, Primed: true,
	}}
}

func TestMarksAndPartRecordsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{Fsync: FsyncAlways, noCheckpointer: true})
	if err != nil {
		t.Fatal(err)
	}
	db := rec.DB
	db.MustAddSchema(relalg.MakeSchema("s", 1))
	st.Attach(db)
	if _, err := db.Insert("s", tup("a"), storage.InsertExact); err != nil {
		t.Fatal(err)
	}
	frontier := ackSubs(1)
	st.SetMarksSource(func() []SubState { return frontier })
	if err := st.SaveMarks(); err != nil {
		t.Fatal(err)
	}
	frontier = ackSubs(7) // the newest frontier record must win
	if err := st.SaveMarks(); err != nil {
		t.Fatal(err)
	}
	// Two part appends with an overlapping tuple: recovery must merge and
	// deduplicate (re-sent answers log the same tuples again).
	if err := st.AppendParts(PartState{RuleID: "r", Part: "S", Cols: []string{"X"},
		Tuples: []relalg.Tuple{tup("p1")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendParts(PartState{RuleID: "r", Part: "S", Cols: []string{"X"},
		Tuples: []relalg.Tuple{tup("p1"), tup("p2")}}); err != nil {
		t.Fatal(err)
	}
	st.Abort() // power loss: no clean-close record

	back, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Clean {
		t.Fatal("aborted store recovered clean")
	}
	if len(back.State.Subs) != 1 || back.State.Subs[0].Marks["s"] != 7 {
		t.Fatalf("recovered subs %+v, want the newest frontier s=7", back.State.Subs)
	}
	if !back.State.Subs[0].Primed {
		t.Fatal("recovered frontier lost Primed")
	}
	if len(back.State.Parts) != 1 {
		t.Fatalf("recovered %d part sets, want 1", len(back.State.Parts))
	}
	if got := len(back.State.Parts[0].Tuples); got != 2 {
		t.Fatalf("recovered %d part tuples, want 2 (deduplicated merge)", got)
	}
}

// TestPartReplaySkipsShortTuples: a replayed part set has the arity of its
// columns. A logged tuple of another width is skipped, even as the part's
// first tuple: no record can panic replay or fix the set's arity.
func TestPartReplaySkipsShortTuples(t *testing.T) {
	pair := func(x, y string) relalg.Tuple { return relalg.Tuple{relalg.S(x), relalg.S(y)} }
	var r Recovered
	cols := []string{"X", "Y"}
	r.mergePart(PartState{RuleID: "r", Part: "S", Cols: cols, Tuples: []relalg.Tuple{tup("short"), pair("a", "b")}})
	r.mergePart(PartState{RuleID: "r", Part: "S", Cols: cols, Tuples: []relalg.Tuple{{relalg.S("e"), relalg.S("f"), relalg.S("extra")}, {}, pair("c", "d")}})
	if len(r.State.Parts) != 1 {
		t.Fatalf("replayed %d part sets, want 1", len(r.State.Parts))
	}
	got, want := r.State.Parts[0].Tuples, []relalg.Tuple{pair("a", "b"), pair("c", "d")}
	if len(got) != len(want) || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
		t.Fatalf("replayed part tuples %v, want %v", got, want)
	}
}

func TestCleanCloseSupersedesMarksRecords(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{noCheckpointer: true})
	if err != nil {
		t.Fatal(err)
	}
	db := rec.DB
	db.MustAddSchema(relalg.MakeSchema("s", 1))
	st.Attach(db)
	st.SetMarksSource(func() []SubState { return ackSubs(3) })
	if err := st.SaveMarks(); err != nil {
		t.Fatal(err)
	}
	// The clean close captures the authoritative state (here: the close-time
	// frontier), which must replace any earlier marks record wholesale.
	st.SetStateSource(func() State { return State{Epoch: 5, Subs: ackSubs(9)} })
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Clean {
		t.Fatal("closed store recovered unclean")
	}
	if back.State.Epoch != 5 || len(back.State.Subs) != 1 || back.State.Subs[0].Marks["s"] != 9 {
		t.Fatalf("clean-close state not authoritative: %+v", back.State)
	}
}

func TestPartRecordsMergeAcrossStateRecord(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{noCheckpointer: true})
	if err != nil {
		t.Fatal(err)
	}
	db := rec.DB
	db.MustAddSchema(relalg.MakeSchema("s", 1))
	st.Attach(db)
	// Part deltas appended after the last full state must extend it: a state
	// snapshot with one tuple, then a delta with a second.
	st.SetStateSource(func() State {
		return State{Parts: []PartState{{RuleID: "r", Part: "S", Cols: []string{"X"},
			Tuples: []relalg.Tuple{tup("p1")}}}}
	})
	if err := st.AppendParts(PartState{RuleID: "r", Part: "S", Cols: []string{"X"},
		Tuples: []relalg.Tuple{tup("p2")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // clean state record LAST: parts replaced
		t.Fatal(err)
	}
	back, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The close-time state wins wholesale (p1 only): deltas before it are
	// compacted into it by the live peer's accumulated parts.
	if len(back.State.Parts) != 1 || len(back.State.Parts[0].Tuples) != 1 {
		t.Fatalf("state record did not supersede part deltas: %+v", back.State.Parts)
	}
}
