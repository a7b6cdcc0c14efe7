package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relalg"
	"repro/internal/storage"
)

func tup(vals ...string) relalg.Tuple {
	t := make(relalg.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relalg.S(v)
	}
	return t
}

// openAttached opens a store in dir, builds a database with the given
// schemas, attaches it and returns both.
func openAttached(t *testing.T, dir string, opts Options, schemas ...relalg.Schema) (*Store, *storage.DB) {
	t.Helper()
	st, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	db := rec.DB
	for _, s := range schemas {
		if err := db.AddSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	st.Attach(db)
	return st, db
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			sub := filepath.Join(dir, policy.String())
			st, db := openAttached(t, sub, Options{Fsync: policy},
				relalg.MakeSchema("p", 2), relalg.MakeSchema("q", 1))
			for i := 0; i < 100; i++ {
				if _, err := db.Insert("p", tup(fmt.Sprint(i), fmt.Sprint(i*2)), storage.InsertExact); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.Insert("q", relalg.Tuple{relalg.I(7)}, storage.InsertExact); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Inspect(sub)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Clean {
				t.Fatal("clean close must recover clean")
			}
			if !rec.DB.Equal(db) {
				t.Fatalf("recovered database differs:\n got %s\nwant %s", rec.DB.Dump(), db.Dump())
			}
			if got := rec.DB.Rel("p").Seq(); got != 100 {
				t.Fatalf("recovered p seq = %d, want 100", got)
			}
		})
	}
}

func TestStatePersistsOnClose(t *testing.T) {
	dir := t.TempDir()
	st, db := openAttached(t, dir, Options{}, relalg.MakeSchema("p", 2))
	if _, err := db.Insert("p", tup("a", "b"), storage.InsertExact); err != nil {
		t.Fatal(err)
	}
	want := State{
		Epoch: 9,
		Subs: []SubState{{
			Dependent: "B", RuleID: "r1", Epoch: 9, Conj: "p(X,Y)",
			Cols: []string{"X", "Y"}, Marks: storage.Marks{"p": 1}, Primed: true,
		}},
		Parts: []PartState{{
			RuleID: "r1", Part: "C", Cols: []string{"X"}, Tuples: []relalg.Tuple{tup("a")},
		}},
	}
	st.SetStateSource(func() State { return want })
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Clean {
		t.Fatal("want clean")
	}
	if rec.State.Epoch != 9 || len(rec.State.Subs) != 1 || len(rec.State.Parts) != 1 {
		t.Fatalf("recovered state = %+v", rec.State)
	}
	sub := rec.State.Subs[0]
	if sub.Dependent != "B" || sub.Conj != "p(X,Y)" || !sub.Primed || sub.Marks["p"] != 1 {
		t.Fatalf("recovered sub = %+v", sub)
	}
	part := rec.State.Parts[0]
	if part.RuleID != "r1" || part.Part != "C" || len(part.Tuples) != 1 || !part.Tuples[0].Equal(tup("a")) {
		t.Fatalf("recovered part = %+v", part)
	}
}

func TestAbortIsUnclean(t *testing.T) {
	dir := t.TempDir()
	st, db := openAttached(t, dir, Options{Fsync: FsyncAlways}, relalg.MakeSchema("p", 1))
	if _, err := db.Insert("p", tup("x"), storage.InsertExact); err != nil {
		t.Fatal(err)
	}
	st.SetStateSource(func() State {
		return State{Epoch: 3, Subs: []SubState{{Dependent: "B", RuleID: "r", Conj: "p(X)"}}}
	})
	st.Abort()
	rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean {
		t.Fatal("aborted store must recover unclean")
	}
	// The FsyncAlways insert returned before the crash: it must be durable.
	if rec.DB.Count("p") != 1 {
		t.Fatalf("durable insert lost: %s", rec.DB.Dump())
	}
}

func TestCheckpointCompactsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rolls; the checkpointer is left off so the
	// test can drive compaction deterministically.
	st, db := openAttached(t, dir, Options{segmentBytes: 256, noCheckpointer: true, Fsync: FsyncNever},
		relalg.MakeSchema("p", 2))
	st.SetStateSource(func() State { return State{Epoch: 4} })
	for i := 0; i < 200; i++ {
		if _, err := db.Insert("p", tup(fmt.Sprint(i), strings.Repeat("x", 10)), storage.InsertExact); err != nil {
			t.Fatal(err)
		}
	}
	before, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(before.segs))
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.segs) != 1 {
		t.Fatalf("checkpoint should leave only the active segment, got %d", len(after.segs))
	}
	if len(after.snaps) != 1 {
		t.Fatalf("want one snapshot, got %d", len(after.snaps))
	}
	// Recovery from snapshot + active tail must reproduce the database and
	// the checkpointed state even without a clean close.
	st.Abort()
	rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.DB.Equal(db) {
		t.Fatalf("post-checkpoint recovery differs:\n got %s\nwant %s", rec.DB.Dump(), db.Dump())
	}
	if rec.State.Epoch != 4 {
		t.Fatalf("checkpointed epoch lost: %+v", rec.State)
	}
	if rec.Clean {
		t.Fatal("abort after checkpoint is still unclean")
	}
}

// TestCheckpointConcurrentWithInserts hammers the store from concurrent
// writers (one per relation — the package's single-writer-per-relation
// discipline) while the background checkpointer compacts rolled segments.
// Under -race this pins the rule that checkpoints read the database only
// through its locked Snapshot, never the live relation logs.
func TestCheckpointConcurrentWithInserts(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{Fsync: FsyncNever, segmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	db := rec.DB
	for r := 0; r < 3; r++ {
		if err := db.AddSchema(relalg.MakeSchema(fmt.Sprintf("r%d", r), 2)); err != nil {
			t.Fatal(err)
		}
	}
	st.Attach(db)
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		go func(rel string) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 400; i++ {
				if _, err := db.Insert(rel, tup(fmt.Sprint(i), "v"), storage.InsertExact); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("r%d", r))
	}
	for r := 0; r < 3; r++ {
		<-done
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !got.DB.Equal(db) {
		t.Fatalf("concurrent checkpointing lost data:\n got %s\nwant %s", got.DB.Dump(), db.Dump())
	}
}

func TestSecondSnapshotSupersedesFirst(t *testing.T) {
	dir := t.TempDir()
	st, db := openAttached(t, dir, Options{segmentBytes: 256, noCheckpointer: true, Fsync: FsyncNever},
		relalg.MakeSchema("p", 1))
	for i := 0; i < 50; i++ {
		_, _ = db.Insert("p", tup(fmt.Sprint(i)), storage.InsertExact)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 120; i++ {
		_, _ = db.Insert("p", tup(fmt.Sprint(i)), storage.InsertExact)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.snaps) != 1 {
		t.Fatalf("old snapshot not pruned: %v", scan.snaps)
	}
	rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DB.Count("p") != 120 {
		t.Fatalf("recovered %d tuples, want 120", rec.DB.Count("p"))
	}
}

func TestReopenContinuesSequences(t *testing.T) {
	dir := t.TempDir()
	st, db := openAttached(t, dir, Options{}, relalg.MakeSchema("p", 1))
	for i := 0; i < 10; i++ {
		_, _ = db.Insert("p", tup(fmt.Sprint(i)), storage.InsertExact)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Second generation: recovered DB continues where the first stopped.
	st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2.Attach(rec.DB)
	for i := 10; i < 20; i++ {
		_, _ = rec.DB.Insert("p", tup(fmt.Sprint(i)), storage.InsertExact)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final.DB.Count("p") != 20 || final.DB.Rel("p").Seq() != 20 {
		t.Fatalf("recovered count=%d seq=%d, want 20/20", final.DB.Count("p"), final.DB.Rel("p").Seq())
	}
	if !final.Clean {
		t.Fatal("want clean after second close")
	}
}

func TestDynamicSchemaAndNullValuesSurvive(t *testing.T) {
	dir := t.TempDir()
	st, db := openAttached(t, dir, Options{}, relalg.MakeSchema("p", 1))
	// A schema declared after Attach flows through the schema listener.
	if err := db.AddSchema(relalg.MakeSchema("late", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("late", relalg.Tuple{relalg.Null("sk1|x"), relalg.I(-42)}, storage.InsertExact); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.DB.HasRelation("late") || rec.DB.Count("late") != 1 {
		t.Fatalf("late relation lost: %s", rec.DB.Dump())
	}
	got := rec.DB.Rel("late").All()[0]
	if !got[0].IsNull() || got[0].NullLabel() != "sk1|x" || got[1].Int() != -42 {
		t.Fatalf("recovered tuple = %v", got)
	}
}

func TestInspectDoesNotWrite(t *testing.T) {
	dir := t.TempDir()
	st, db := openAttached(t, dir, Options{}, relalg.MakeSchema("p", 1))
	_, _ = db.Insert("p", tup("x"), storage.InsertExact)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := scanDir(dir)
	if _, err := Inspect(dir); err != nil {
		t.Fatal(err)
	}
	after, _ := scanDir(dir)
	if len(before.segs) != len(after.segs) || len(before.snaps) != len(after.snaps) {
		t.Fatalf("inspect changed the directory: %v -> %v", before, after)
	}
}

// stickyErr returns the sticky I/O error, if any append has failed.
func (s *Store) stickyErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func TestAppendAfterCloseIsNoop(t *testing.T) {
	dir := t.TempDir()
	st, db := openAttached(t, dir, Options{}, relalg.MakeSchema("p", 1))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The database outlives the store; late inserts must not panic or error
	// the store, they are simply not durable.
	if _, err := db.Insert("p", tup("late"), storage.InsertExact); err != nil {
		t.Fatal(err)
	}
	if err := st.stickyErr(); err != nil {
		t.Fatalf("late append errored the store: %v", err)
	}
	rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DB.Count("p") != 0 {
		t.Fatal("post-close insert must not be durable")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("want error for unknown policy")
	}
}

func TestRecoveredStringSummarises(t *testing.T) {
	dir := t.TempDir()
	st, db := openAttached(t, dir, Options{}, relalg.MakeSchema("p", 1))
	_, _ = db.Insert("p", tup("x"), storage.InsertExact)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.String()
	if !strings.Contains(s, "clean") || !strings.Contains(s, "records") {
		t.Fatalf("summary = %q", s)
	}
	_ = os.RemoveAll(dir)
}
