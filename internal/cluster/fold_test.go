package cluster

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

var members5 = []string{"A", "B", "C", "D", "E"}

// TestAliveProposedBeforeTheDeathIsIgnored replays the second path to the
// same flake. B proposed E alive while E's death was not yet in B's log, so
// no evidence rule at the proposer could have seen it; the proposal landed
// one instance after the death, folded dead→alive, and the election was gone
// for good. The fold itself must refuse an alive whose premise — the last
// entry its proposer had folded — is older than the death.
func TestAliveProposedBeforeTheDeathIsIgnored(t *testing.T) {
	member := func(origin string, st Status, premise uint64) wire.Command {
		return wire.Command{Kind: "member", Origin: origin, Node: "E", Status: uint8(st), Ref: premise}
	}
	s := newFoldState(members5, 2)
	s.fold(9, member("C", StatusAlive, 8))
	s.fold(10, member("A", StatusDead, 9))
	s.fold(11, member("B", StatusAlive, 9))
	if s.View["E"] != StatusDead || s.Version != 2 || len(s.Elections) != 1 {
		t.Fatalf("after an alive premised on instance 9 over the death at 10: E is %v at version %d with %d elections open, want dead, 2, 1",
			s.View["E"], s.Version, len(s.Elections))
	}
	if s.Applied != 11 {
		t.Fatalf("folded = %d after the ignored entry, want 11: it is still an entry this member has seen", s.Applied)
	}
	// A restored member must fold the same way: the rule's input travels.
	twin, err := newFoldState(members5, 2).restore(10, s.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	twin.fold(11, member("B", StatusAlive, 9))
	if twin.View["E"] != StatusDead || len(twin.Elections) != 1 {
		t.Fatalf("a member restored at instance 10 folds the stale alive: E is %v with %d elections open", twin.View["E"], len(twin.Elections))
	}
	// Nor may a suspicion proposed before the death overwrite it: an alive
	// premised on the suspicion would then pass the rule (TestFoldModelCheck
	// found that third path).
	twin.fold(12, member("C", StatusSuspect, 9))
	if twin.View["E"] != StatusDead || len(twin.Elections) != 1 {
		t.Fatalf("a suspicion premised on instance 9 overwrote the death at 10: E is %v with %d elections open", twin.View["E"], len(twin.Elections))
	}
	// A proposer that has folded the death — or states no premise, as old
	// logs and hand-made verdicts do — is honoured.
	for _, premise := range []uint64{10, 0} {
		s := newFoldState(members5, 2)
		s.fold(10, member("A", StatusDead, 9))
		s.fold(12, member("B", StatusAlive, premise))
		if s.View["E"] != StatusAlive || len(s.Elections) != 0 {
			t.Errorf("alive with premise %d over the death at 10: E is %v with %d elections open, want alive and none",
				premise, s.View["E"], len(s.Elections))
		}
	}
}

// snapshotLog is the log behind testdata/control-snapshot.gob: a decided
// election (E re-homed to A), an open one (C, one bid of two), a pending
// update, two rules, and deaths, suspicion and life in the view.
func snapshotLog() []wire.Command {
	member := func(node string, st Status, ref uint64) wire.Command {
		return wire.Command{Kind: "member", Node: node, Status: uint8(st), Ref: ref}
	}
	bid := func(origin, node string, f uint64) wire.Command {
		return wire.Command{Kind: "promoteBid", Origin: origin, Node: node, Ref: f}
	}
	return []wire.Command{
		member("A", StatusAlive, 0), member("B", StatusAlive, 1), member("C", StatusAlive, 2),
		member("D", StatusAlive, 3), member("E", StatusAlive, 4),
		{Kind: "addRule", Text: "rx: C:c(X,Y) -> A:a(X,Y)"},
		{Kind: "update", Node: "B"},
		member("E", StatusDead, 7),
		bid("A", "E", 5), bid("B", "E", 9), bid("C", "E", 9), bid("D", "E", 2),
		member("C", StatusDead, 12),
		bid("A", "C", 4),
		member("D", StatusSuspect, 14),
		{Kind: "addRule", Text: "ry: B:b(X,Y) -> E:e(X,Y)"},
	}
}

// TestSnapshotFormatRestores pins the state-transfer bytes, which persist as
// the snapshot marker of <node>.control.log: a snapshot written by the
// control plane before the fold was split out of it (the gob of its state
// after snapshotLog) must restore to the fold snapshotLog folds to now.
func TestSnapshotFormatRestores(t *testing.T) {
	data, err := os.ReadFile("testdata/control-snapshot.gob")
	if err != nil {
		t.Fatal(err)
	}
	log := snapshotLog()
	want := newFoldState(members5, 2)
	for i, cmd := range log {
		want.fold(uint64(i+1), cmd)
	}
	got, err := newFoldState(members5, 2).restore(uint64(len(log)), data)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
		t.Fatalf("the checked-in snapshot restores to\n%s\nwant\n%s", g, w)
	}
	if len(want.Elections) != 1 || want.Hosts["E"] != "A" || want.PendingInst != 7 || len(want.Rules) != 2 {
		t.Fatalf("snapshotLog no longer folds to what the snapshot was written from: %+v", *want)
	}
	// The current format round-trips too.
	again, err := got.restore(got.Applied, got.snapshot())
	if err != nil || fmt.Sprintf("%+v", *again) != fmt.Sprintf("%+v", *want) {
		t.Fatalf("snapshot round trip: %v\n%+v", err, again)
	}
}

// ruleRecorder counts the rule calls a control plane makes on its peer.
type ruleRecorder struct {
	fakeHosted
	added, deleted atomic.Int32
}

func (h *ruleRecorder) AddRuleLocal(string) error { h.added.Add(1); return nil }
func (h *ruleRecorder) DeleteRuleLocal(string)    { h.deleted.Add(1) }

// TestTransferAppliesOnlyChangedRules: a state transfer used to re-add every
// head rule of the snapshot, and each AddRuleLocal floods TopoChanged and
// starts a discovery wave. Restore applies the rules that are new or whose
// text changed, and deletes the ones that are gone — nothing else.
func TestTransferAppliesOnlyChangedRules(t *testing.T) {
	h := &ruleRecorder{}
	tr, cp := bootSoloCP(t, "", h)
	defer func() {
		cp.Close()
		_ = tr.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, text := range []string{"rx: B:b(X,Y) -> A:a(X,Y)", "ry: C:c(X,Y) -> A:a(Y,X)"} {
		if _, err := cp.cons.Submit(ctx, wire.Command{Kind: "addRule", Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return h.added.Load() == 2 }, "the agreed rules never reached the head")
	through := cp.Metrics().Applied
	same := cp.snapshotState()
	calls := func() (int32, int32) { return h.added.Load() - 2, h.deleted.Load() }

	cp.restoreState(through, same)
	if a, d := calls(); a != 0 || d != 0 {
		t.Fatalf("restoring the current fold made %d add and %d delete calls, want none", a, d)
	}
	changed, err := cp.st.restore(through, same)
	if err != nil {
		t.Fatal(err)
	}
	changed.Rules["ry"] = "ry: C:c(X,Y) -> A:a(X,Y)"
	cp.restoreState(through, changed.snapshot())
	if a, d := calls(); a != 1 || d != 0 {
		t.Fatalf("one changed rule made %d add and %d delete calls, want 1 and 0", a, d)
	}
	delete(changed.Rules, "rx")
	cp.restoreState(through, changed.snapshot())
	if a, d := calls(); a != 1 || d != 1 {
		t.Fatalf("one deleted rule made %d add and %d delete calls in all, want 1 and 1", a, d)
	}
}
