package peer_test

import (
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/wire"
)

// TestShortPartTupleIsSkipped: a multi-source rule's part set has the arity
// of the part's columns. An answer carrying a tuple shorter than its columns
// — malformed wire input — is skipped before it reaches the set, whether it
// is the first tuple the part ever receives or arrives after the update: the
// node does not panic, and its fix-point is the referee's. (An injected
// answer has no sender in the counter balance, so the update's quiescence
// wait stands still for about a second before it trusts the network.)
func TestShortPartTupleIsSkipped(t *testing.T) {
	def, err := rules.ParseNetwork(`
node A {
  rel a(x, y)
}
node B {
  rel b(y, z)
}
node H {
  rel h(x, z)
}
rule r: A:a(X,Y), B:b(Y,Z) -> H:h(X,Z)
fact A:a('x1', 'y1')
fact A:a('x2', 'y2')
fact B:b('y1', 'z1')
fact B:b('y2', 'z2')
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr := newStepTransport(1)
	n, err := core.Build(def, core.Options{Delta: true, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	h := n.Peer("H")
	_, cols := def.Rules[0].BodyPart("A")
	short := func() {
		h.Handle(wire.Envelope{From: "A", To: "H", Msg: wire.Answer{
			Epoch: h.Epoch(), RuleID: "r", Part: "A", Columns: cols, Delta: true,
			Tuples: []relalg.Tuple{{relalg.S("x1")}}, Route: []string{"H", "A"},
		}})
	}
	short()
	if err := n.Update(ctx); err != nil {
		t.Fatal(err)
	}
	short()
	for tr.Step() > 0 {
	}
	ref, err := baseline.Centralized(def, rules.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range n.Nodes() {
		if have, want := n.Peer(id).DB().Dump(), ref.DBs[id].Dump(); have != want {
			t.Errorf("node %s holds\n%s\nthe referee\n%s", id, have, want)
		}
	}
	if got := h.DB().Count("h"); got != 2 {
		t.Errorf("h holds %d tuples, want 2", got)
	}
}
