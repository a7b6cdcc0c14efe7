package storage

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/relalg"
)

func TestAddSchemaConflicts(t *testing.T) {
	db := New(relalg.MakeSchema("a", 2))
	if err := db.AddSchema(relalg.MakeSchema("a", 2)); err != nil {
		t.Errorf("identical redeclaration should be a no-op: %v", err)
	}
	if err := db.AddSchema(relalg.MakeSchema("a", 3)); err == nil {
		t.Error("conflicting arity must error")
	}
	if db.Arity("a") != 2 {
		t.Errorf("arity = %d", db.Arity("a"))
	}
	if db.Arity("zzz") != -1 {
		t.Error("undeclared arity should be -1")
	}
}

func TestInsertModes(t *testing.T) {
	db := New(relalg.MakeSchema("p", 2))
	added, err := db.Insert("p", relalg.Tuple{relalg.S("k"), relalg.S("v")}, InsertExact)
	if err != nil || !added {
		t.Fatalf("insert: %v %v", added, err)
	}
	// Exact mode: a null tuple subsumed by an existing constant tuple is
	// still inserted.
	nullTup := relalg.Tuple{relalg.S("k"), relalg.Null("n")}
	added, err = db.Insert("p", nullTup, InsertExact)
	if err != nil || !added {
		t.Fatalf("exact-mode insert of subsumed null tuple: %v %v", added, err)
	}

	db2 := New(relalg.MakeSchema("p", 2))
	if _, err := db2.Insert("p", relalg.Tuple{relalg.S("k"), relalg.S("v")}, InsertExact); err != nil {
		t.Fatal(err)
	}
	added, err = db2.Insert("p", nullTup, InsertCore)
	if err != nil || added {
		t.Fatalf("core-mode insert of subsumed null tuple must be skipped: %v %v", added, err)
	}
}

func TestInsertUndeclared(t *testing.T) {
	db := New()
	if _, err := db.Insert("q", relalg.Tuple{relalg.S("x")}, InsertExact); err == nil {
		t.Error("insert into undeclared relation must error")
	}
}

func TestDeltaSince(t *testing.T) {
	db := New(relalg.MakeSchema("p", 1), relalg.MakeSchema("q", 1))
	ins := func(rel, v string) {
		t.Helper()
		if _, err := db.Insert(rel, relalg.Tuple{relalg.S(v)}, InsertExact); err != nil {
			t.Fatal(err)
		}
	}
	ins("p", "1")
	ins("q", "a")

	delta, marks := db.DeltaSince(nil, []string{"p", "q"})
	if len(delta["p"]) != 1 || len(delta["q"]) != 1 {
		t.Fatalf("initial delta = %v", delta)
	}

	ins("p", "2")
	delta, marks = db.DeltaSince(marks, []string{"p", "q"})
	if len(delta["p"]) != 1 || delta["p"][0][0] != relalg.S("2") {
		t.Fatalf("delta p = %v", delta["p"])
	}
	if _, ok := delta["q"]; ok {
		t.Fatalf("q should have no delta: %v", delta["q"])
	}

	// No changes: empty delta, marks stable.
	delta, marks2 := db.DeltaSince(marks, []string{"p", "q"})
	if len(delta) != 0 {
		t.Fatalf("idle delta = %v", delta)
	}
	if marks2["p"] != marks["p"] || marks2["q"] != marks["q"] {
		t.Error("marks moved without inserts")
	}
}

func TestMarksFor(t *testing.T) {
	db := New(relalg.MakeSchema("p", 1), relalg.MakeSchema("q", 1))
	if _, err := db.Insert("p", relalg.Tuple{relalg.S("1")}, InsertExact); err != nil {
		t.Fatal(err)
	}
	marks := db.MarksFor([]string{"p", "q", "absent"})
	if marks["p"] != 1 || marks["q"] != 0 {
		t.Fatalf("marks = %v", marks)
	}
	if _, ok := marks["absent"]; ok {
		t.Fatalf("undeclared relation got a mark: %v", marks)
	}
	// MarksFor primes exactly like a full DeltaSince, without the copies.
	if _, err := db.Insert("p", relalg.Tuple{relalg.S("2")}, InsertExact); err != nil {
		t.Fatal(err)
	}
	delta, _ := db.DeltaSince(marks, []string{"p", "q"})
	if len(delta["p"]) != 1 || delta["p"][0][0] != relalg.S("2") {
		t.Fatalf("delta after MarksFor = %v", delta)
	}
}

func TestSnapshotAndEqual(t *testing.T) {
	db := New(relalg.MakeSchema("p", 1))
	if _, err := db.Insert("p", relalg.Tuple{relalg.S("1")}, InsertExact); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	other := db.Clone()
	if !db.Equal(other) {
		t.Fatal("clone must equal original")
	}
	if _, err := other.Insert("p", relalg.Tuple{relalg.S("2")}, InsertExact); err != nil {
		t.Fatal(err)
	}
	if db.Equal(other) {
		t.Fatal("diverged clone must not be equal")
	}
	if snap["p"].Len() != 1 {
		t.Fatal("snapshot must be isolated from later inserts")
	}
	// Equality must tolerate one side lacking a relation when it is empty
	// on the other.
	a := New(relalg.MakeSchema("p", 1), relalg.MakeSchema("extra", 1))
	b := New(relalg.MakeSchema("p", 1))
	if !a.Equal(b) {
		t.Error("empty extra relation should not break equality")
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	db := New(relalg.MakeSchema("p", 1))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			_, _ = db.Insert("p", relalg.Tuple{relalg.I(int64(i))}, InsertExact)
		}
	}()
	for i := 0; i < 500; i++ {
		_ = db.Count("p")
		_ = db.TotalTuples()
		_, _ = db.DeltaSince(nil, []string{"p"})
	}
	<-done
	if db.Count("p") != 500 {
		t.Fatalf("count = %d", db.Count("p"))
	}
}

// TestInsertListeners: a batch notifies once per run of new tuples — a
// subslice of the caller's argument, never a copy — with the seq of its last
// tuple; a duplicate, an earlier tuple of the same batch or a core-subsumed
// tuple ends a run and is never passed; the argument is left as it was.
func TestInsertListeners(t *testing.T) {
	db := New(relalg.MakeSchema("p", 2))
	s, n := relalg.S, relalg.Null
	if _, err := db.Insert("p", relalg.Tuple{s("k"), s("v")}, InsertExact); err != nil {
		t.Fatal(err)
	}
	batch := []relalg.Tuple{
		{s("a"), s("1")}, {s("a"), s("2")},
		{s("k"), s("v")},   // stored before
		{s("k"), n("n|1")}, // subsumed by (k, v)
		{s("b"), s("1")},
		{s("a"), s("1")},                     // earlier in this batch
		{s("c"), n("n|2")}, {s("c"), s("1")}, // nothing subsumes (c, n|2) yet
		{s("c"), n("n|3")}, // subsumed by both
	}
	before := make([]relalg.Tuple, len(batch))
	for i, tp := range batch {
		before[i] = slices.Clone(tp)
	}
	var fired []string
	db.AddInsertListener(func(rel string, ts []relalg.Tuple, last uint64) {
		// Listeners run outside the database lock: reads must not deadlock.
		if db.Count(rel) < int(last) {
			t.Errorf("run ending at seq %d notified before it was stored", last)
		}
		at := slices.IndexFunc(batch, func(tp relalg.Tuple) bool { return len(ts) > 0 && &tp[0] == &ts[0][0] })
		fired = append(fired, fmt.Sprintf("%s@%d..%d=batch[%d:%d]", rel, last-uint64(len(ts))+1, last, at, at+len(ts)))
	})
	added, err := db.InsertAll("p", batch, InsertCore)
	if err != nil || added != 5 {
		t.Fatalf("InsertAll = %d, %v; want 5 new", added, err)
	}
	want := []string{"p@2..3=batch[0:2]", "p@4..4=batch[4:5]", "p@5..6=batch[6:8]"}
	if !slices.Equal(fired, want) {
		t.Fatalf("listener fired %v, want %v", fired, want)
	}
	for i := range batch {
		if !batch[i].Equal(before[i]) {
			t.Fatalf("InsertAll wrote its argument: batch[%d] = %v, was %v", i, batch[i], before[i])
		}
	}

	fired = nil
	if _, err := db.Insert("p", relalg.Tuple{s("a"), s("1")}, InsertExact); err != nil {
		t.Fatal(err) // duplicate: no notification
	}
	if _, err := db.Insert("q", relalg.Tuple{s("b")}, InsertExact); err == nil {
		t.Fatal("undeclared relation must fail")
	}
	batch = []relalg.Tuple{{s("d"), s("1")}}
	if _, err := db.Insert("p", batch[0], InsertExact); err != nil {
		t.Fatal(err)
	}
	if want := []string{"p@7..7=batch[0:1]"}; !slices.Equal(fired, want) {
		t.Fatalf("single inserts fired %v, want %v", fired, want)
	}
}

// TestInsertAllStopsAtAnArityError: the tuples before a tuple of another
// arity stay committed and notified; it and those after it are not stored.
func TestInsertAllStopsAtAnArityError(t *testing.T) {
	db := New(relalg.MakeSchema("p", 1))
	var runs []uint64
	db.AddInsertListener(func(_ string, ts []relalg.Tuple, last uint64) { runs = append(runs, uint64(len(ts)), last) })
	s := relalg.S
	added, err := db.InsertAll("p", []relalg.Tuple{{s("a")}, {s("b")}, {s("c"), s("x")}, {s("d")}}, InsertExact)
	if err == nil || added != 2 || db.Count("p") != 2 || !slices.Equal(runs, []uint64{2, 2}) {
		t.Fatalf("InsertAll = %d, %v; %d stored, runs (len, last) %v; want 2, an error, 2, [2 2]", added, err, db.Count("p"), runs)
	}
}

// TestInsertFreshStopsAtAPresentTuple: in InsertFresh mode a tuple already
// present ends the batch, with no error; what came before it is committed
// and notified, nothing after it is inserted.
func TestInsertFreshStopsAtAPresentTuple(t *testing.T) {
	db := New(relalg.MakeSchema("p", 1))
	var runs []uint64
	db.AddInsertListener(func(_ string, ts []relalg.Tuple, last uint64) { runs = append(runs, uint64(len(ts)), last) })
	s := relalg.S
	added, err := db.InsertAll("p", []relalg.Tuple{{s("a")}, {s("b")}, {s("a")}, {s("d")}}, InsertFresh)
	if err != nil || added != 2 || db.Count("p") != 2 || !slices.Equal(runs, []uint64{2, 2}) {
		t.Fatalf("InsertAll = %d, %v; %d stored, runs (len, last) %v; want 2, no error, 2, [2 2]", added, err, db.Count("p"), runs)
	}
}

func TestSchemaListeners(t *testing.T) {
	db := New(relalg.MakeSchema("p", 1))
	var fired []string
	db.AddSchemaListener(func(s relalg.Schema) { fired = append(fired, s.Name) })
	if err := db.AddSchema(relalg.MakeSchema("q", 2)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddSchema(relalg.MakeSchema("q", 2)); err != nil {
		t.Fatal(err) // identical redeclaration: no notification
	}
	if len(fired) != 1 || fired[0] != "q" {
		t.Fatalf("schema listener fired %v, want [q]", fired)
	}
}

// TestAddSchemaRejectsAttributeDrift pins the redeclaration check down to
// attribute names: a same-arity redeclaration whose columns differ is a
// schema conflict, not a no-op (regression: only arity used to be checked,
// so b(x,z) silently aliased b(x,y)).
func TestAddSchemaRejectsAttributeDrift(t *testing.T) {
	db := New(relalg.Schema{Name: "b", Attrs: []string{"x", "y"}})
	if err := db.AddSchema(relalg.Schema{Name: "b", Attrs: []string{"x", "y"}}); err != nil {
		t.Fatalf("identical redeclaration must be a no-op, got %v", err)
	}
	if err := db.AddSchema(relalg.Schema{Name: "b", Attrs: []string{"x", "z"}}); err == nil {
		t.Fatal("same-arity redeclaration with different attributes must error")
	}
	if err := db.AddSchema(relalg.Schema{Name: "b", Attrs: []string{"x", "y", "z"}}); err == nil {
		t.Fatal("different-arity redeclaration must error")
	}
}

// TestDeltaSinceAliasesAnImmutablePrefix: DeltaSince hands out views of the
// relations' logs instead of copies. A view's capacity ends where it does, so
// a caller's append cannot reach the relation; and it reads the same tuples
// after 10 000 further inserts — made here by a concurrent inserter while the
// reader walks its views and takes new ones, which is the access pattern of a
// peer answering subscribers during an insert burst (run under -race).
func TestDeltaSinceAliasesAnImmutablePrefix(t *testing.T) {
	db := New(relalg.MakeSchema("p", 2))
	tuple := func(i int) relalg.Tuple { return relalg.Tuple{relalg.S("k"), relalg.I(int64(i))} }
	for i := 0; i < 10; i++ {
		if _, err := db.Insert("p", tuple(i), InsertExact); err != nil {
			t.Fatal(err)
		}
	}
	delta, marks := db.DeltaSince(Marks{"p": 4}, []string{"p"})
	view := delta["p"]
	if len(view) != 6 || cap(view) != 6 || marks["p"] != 10 {
		t.Fatalf("DeltaSince(4) = %d tuples, cap %d, mark %d; want 6, 6, 10", len(view), cap(view), marks["p"])
	}
	if _, err := db.Insert("p", tuple(10), InsertExact); err != nil {
		t.Fatal(err)
	}
	_ = append(view, relalg.Tuple{relalg.S("intruder"), relalg.I(-1)})
	if got := db.Rel("p").All()[10]; !got.Equal(tuple(10)) {
		t.Fatalf("append to a DeltaSince view overwrote the log: %v", got)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 11; i < 10011; i++ {
			if _, err := db.Insert("p", tuple(i), InsertExact); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func(view []relalg.Tuple, from int) {
		for i, tp := range view {
			if !tp.Equal(tuple(from + i)) {
				t.Fatalf("view[%d] from mark %d = %v", i, from, tp)
			}
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check(view, 4)
		from := int(marks["p"])
		delta, marks = db.DeltaSince(marks, []string{"p"})
		check(delta["p"], from)
	}
	check(view, 4)
	if marks["p"] != 10011 {
		t.Fatalf("final mark %d, want 10011", marks["p"])
	}
}
