package peer

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// harness builds a tiny two-peer world: S (source, has data) and H (head,
// imports via rule r: S:s(X,Y) -> H:h(X,Y)).
type harness struct {
	tr   *transport.Mem
	s, h *Peer
}

func newHarness(t testing.TB, opts Options) *harness {
	t.Helper()
	tr := transport.NewMem(transport.MemOptions{})
	t.Cleanup(func() { _ = tr.Close() })
	r, err := rules.ParseRule("r: S:s(X,Y) -> H:h(X,Y)")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("S", []relalg.Schema{relalg.MakeSchema("s", 2)}, nil, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New("H", []relalg.Schema{relalg.MakeSchema("h", 2)}, []rules.Rule{r}, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.AddNeighbor("H")
	h.AddNeighbor("S")
	if err := s.Seed("s", relalg.Tuple{relalg.S("a"), relalg.S("b")}); err != nil {
		t.Fatal(err)
	}
	return &harness{tr: tr, s: s, h: h}
}

// quiesce waits until the harness has settled. Mem sees its mailboxes and
// handlers, but not a durable peer's ack worker, which applies a message's
// acknowledgment after Handle returned; the peer counts the message received
// only then. So where the harness peers run ack workers, their counters must
// also balance, with Mem idle on both sides of the reading. Only these two
// peers keep counters: a test that injects messages from a tap (a handler, not
// a peer) does so on peers without ack workers, which Mem alone covers.
func (hs *harness) quiesce(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		if err := hs.tr.WaitQuiescent(ctx); err != nil {
			t.Fatal(err)
		}
		if hs.acksApplied() && hs.tr.Inflight() == 0 {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatal("the harness peers' counters never balanced")
		case <-time.After(time.Millisecond):
		}
	}
}

// acksApplied reports whether no harness peer has acknowledgment work pending:
// true without ack workers, else the peers' counter balance, every finished
// total read before every started one as core's readBalance does.
func (hs *harness) acksApplied() bool {
	var peers []*Peer
	workers := false
	for _, p := range []*Peer{hs.s, hs.h} {
		if p != nil {
			peers = append(peers, p)
			workers = workers || p.ackCh != nil
		}
	}
	if !workers {
		return true
	}
	var started, finished uint64
	for _, p := range peers {
		_, f := p.Counters().Totals()
		finished += f
	}
	for _, p := range peers {
		s, _ := p.Counters().Totals()
		started += s
	}
	return started == finished
}

func TestNewRejectsForeignRules(t *testing.T) {
	tr := transport.NewMem(transport.MemOptions{})
	defer tr.Close()
	r, _ := rules.ParseRule("r: S:s(X) -> OTHER:h(X)")
	if _, err := New("H", nil, []rules.Rule{r}, tr, Options{}); err == nil {
		t.Fatal("rule targeting another node must be rejected")
	}
}

func TestUpdateWaveEndToEnd(t *testing.T) {
	hs := newHarness(t, Options{})
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	if hs.h.State() != Closed || hs.s.State() != Closed {
		t.Fatalf("states: H=%v S=%v", hs.h.State(), hs.s.State())
	}
	if got := hs.h.DB().Count("h"); got != 1 {
		t.Fatalf("h = %d", got)
	}
}

func TestDuplicateQueriesCounted(t *testing.T) {
	hs := newHarness(t, Options{})
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	// Re-probing re-issues the same (rule, epoch) query: S must count it.
	hs.h.sh.Lock()
	hs.h.stateU = Open
	hs.h.sh.Unlock()
	hs.h.Probe()
	hs.quiesce(t)
	if got := hs.s.Counters().Snapshot().DuplicateQueries; got == 0 {
		t.Error("duplicate query not counted")
	}
}

func TestUnsubscribeStopsPushes(t *testing.T) {
	hs := newHarness(t, Options{})
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	// H unsubscribes; a later source change must not reach it.
	hs.s.Handle(wire.Envelope{From: "H", To: "S", Msg: wire.Unsubscribe{RuleID: "r"}})
	if err := hs.s.Seed("s", relalg.Tuple{relalg.S("x"), relalg.S("y")}); err != nil {
		t.Fatal(err)
	}
	// Trigger S's push path via a fake no-news answer processing: directly
	// exercise pushToSubsLocked through a query from another peer is
	// overkill; simply assert the subscription is gone.
	hs.s.sh.Lock()
	n := len(hs.s.subs)
	hs.s.sh.Unlock()
	if n != 0 {
		t.Fatalf("subscriptions remain: %d", n)
	}
}

func TestStatsVerbs(t *testing.T) {
	hs := newHarness(t, Options{})
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	// Super-peer H asks S for stats.
	hs.h.Send("S", wire.StatsRequest{})
	hs.quiesce(t)
	reports := hs.h.StatsReports()
	if _, ok := reports["S"]; !ok {
		t.Fatalf("no report from S: %v", reports)
	}
	if reports["S"].TotalReceived() == 0 {
		t.Error("S report looks empty")
	}
	// Reset wipes counters.
	hs.h.Send("S", wire.StatsReset{})
	hs.quiesce(t)
	if got := hs.s.Counters().Snapshot().TotalSent(); got != 0 {
		t.Errorf("S counters not reset: %d sent", got)
	}
}

func TestSetNetworkAdoptsRules(t *testing.T) {
	hs := newHarness(t, Options{})
	text := `
node S { rel s(x,y) }
node H { rel h(x,y)  rel h2(x) }
rule r2: S:s(X,Y) -> H:h2(X)
`
	hs.h.Handle(wire.Envelope{From: "S", To: "H", Msg: wire.SetNetwork{Text: text}})
	hs.quiesce(t)
	got := hs.h.Rules()
	if len(got) != 1 || got[0] != "r2" {
		t.Fatalf("rules after SetNetwork = %v", got)
	}
	// The old rule r must be gone and its subscription cancelled; running
	// an update must fill h2 but not h.
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	if hs.h.DB().Count("h2") != 1 {
		t.Errorf("h2 = %d", hs.h.DB().Count("h2"))
	}
	if hs.h.DB().Count("h") != 0 {
		t.Errorf("h = %d (imported through a replaced rule)", hs.h.DB().Count("h"))
	}
}

// TestQueryRepliesAreCanonical: evaluation returns rows in first-derivation
// order, but what a person reads — LocalQuery and the QueryRequest reply — is
// sorted.
func TestQueryRepliesAreCanonical(t *testing.T) {
	hs := newHarness(t, Options{})
	for _, x := range []string{"z", "m", "b"} { // the harness seeded ('a','b') first
		if err := hs.s.Seed("s", relalg.Tuple{relalg.S(x), relalg.S("y")}); err != nil {
			t.Fatal(err)
		}
	}
	const want = "[(a) (b) (m) (z)]"
	rows, err := hs.s.LocalQuery("s(X,Y)", []string{"X"})
	if err != nil || fmt.Sprint(rows) != want {
		t.Errorf("LocalQuery = %v, %v; want %s", rows, err, want)
	}
	replies := make(chan wire.QueryResult, 1)
	if err := hs.tr.Register("asker", func(env wire.Envelope) {
		if res, ok := env.Msg.(wire.QueryResult); ok {
			replies <- res
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := hs.tr.Send("asker", "S", wire.QueryRequest{ID: 1, Body: "s(X,Y)", Cols: []string{"X"}}); err != nil {
		t.Fatal(err)
	}
	hs.quiesce(t)
	select {
	case res := <-replies:
		if res.Err != "" || fmt.Sprint(res.Tuples) != want {
			t.Errorf("QueryResult = %v (err %q), want %s", res.Tuples, res.Err, want)
		}
	default:
		t.Fatal("no QueryResult came back")
	}
}

func TestLocalQueryErrors(t *testing.T) {
	hs := newHarness(t, Options{})
	if _, err := hs.h.LocalQuery("h(X,", []string{"X"}); err == nil {
		t.Error("parse error expected")
	}
	if _, err := hs.h.LocalQuery("h(X,Y)", []string{"Z"}); err == nil {
		t.Error("unbound output var must error")
	}
}

func TestSeedUndeclared(t *testing.T) {
	hs := newHarness(t, Options{})
	if err := hs.s.Seed("zzz", relalg.Tuple{relalg.S("x")}); err == nil {
		t.Error("seeding an undeclared relation must error")
	}
}

// countKind returns how many events of the kind rec recorded.
func countKind(rec *trace.Recorder, kind string) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func TestTraceRecording(t *testing.T) {
	rec := trace.NewRecorder(0)
	tr := transport.NewMem(transport.MemOptions{})
	t.Cleanup(func() { _ = tr.Close() })
	r, _ := rules.ParseRule("r: S:s(X) -> H:h(X)")
	s, err := New("S", []relalg.Schema{relalg.MakeSchema("s", 1)}, nil, tr, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New("H", []relalg.Schema{relalg.MakeSchema("h", 1)}, []rules.Rule{r}, tr, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	s.AddNeighbor("H")
	h.AddNeighbor("S")
	if err := s.Seed("s", relalg.Tuple{relalg.S("v")}); err != nil {
		t.Fatal(err)
	}
	h.StartDiscovery()
	h.StartUpdateWave()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tr.WaitQuiescent(ctx); err != nil {
		t.Fatal(err)
	}
	if countKind(rec, "requestNodes") == 0 {
		t.Error("no discovery events recorded")
	}
	if countKind(rec, "query") == 0 || countKind(rec, "answer") == 0 {
		t.Error("no update events recorded")
	}
}

func TestAddRuleLocalValidation(t *testing.T) {
	hs := newHarness(t, Options{})
	if err := hs.h.AddRuleLocal("bad syntax"); err == nil {
		t.Error("malformed rule must error")
	}
	if err := hs.h.AddRuleLocal("rx: S:s(X,Y) -> S:other(X)"); err == nil {
		t.Error("rule for another head must error")
	}
}

func TestDeltaModeSendsOnlyNewTuples(t *testing.T) {
	hs := newHarness(t, Options{Delta: true})
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	sentBefore := hs.s.Counters().Snapshot().BytesSent

	// New epoch with one extra source tuple: the direct answer must carry
	// only the new tuple (plus protocol overhead), not the full set again.
	if err := hs.s.Seed("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	if hs.h.DB().Count("h") != 2 {
		t.Fatalf("h = %d", hs.h.DB().Count("h"))
	}
	sentAfter := hs.s.Counters().Snapshot().BytesSent
	if sentAfter-sentBefore > sentBefore*3 {
		t.Errorf("delta epoch cost %d bytes vs %d for the first", sentAfter-sentBefore, sentBefore)
	}
}

// TestSemiNaiveMarksTrackSubscription inspects the subscription state behind
// the semi-naive path: marks must prime on the first answer, advance with
// new data, and reset to a full re-evaluation when the subscription is torn
// down and re-created.
func TestSemiNaiveMarksTrackSubscription(t *testing.T) {
	hs := newHarness(t, Options{Delta: true})
	hs.h.StartUpdateWave()
	hs.quiesce(t)

	subOf := func() *subscription {
		hs.s.sh.Lock()
		defer hs.s.sh.Unlock()
		return hs.s.subs[subKey("H", "r")]
	}
	sub := subOf()
	if sub == nil {
		t.Fatal("no subscription registered at S")
	}
	if !sub.primed || sub.st.Shipped()["s"] != 1 {
		t.Fatalf("marks not primed: primed=%v marks=%v", sub.primed, sub.st.Shipped())
	}

	// New data plus a new epoch: the mark must advance past it.
	if err := hs.s.Seed("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	if sub = subOf(); sub.st.Shipped()["s"] != 2 {
		t.Fatalf("marks after second epoch = %v", sub.st.Shipped())
	}
	if hs.h.DB().Count("h") != 2 {
		t.Fatalf("h = %d", hs.h.DB().Count("h"))
	}

	// Unsubscribe and re-query: the fresh subscription must re-prime (and
	// the requester, whose database persists, stays complete).
	hs.s.Handle(wire.Envelope{From: "H", To: "S", Msg: wire.Unsubscribe{RuleID: "r"}})
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	if sub = subOf(); sub == nil || !sub.primed || sub.st.Shipped()["s"] != 2 {
		t.Fatalf("re-created subscription not re-primed: %+v", sub)
	}
	if hs.h.DB().Count("h") != 2 {
		t.Fatalf("h after resubscribe = %d", hs.h.DB().Count("h"))
	}
}

func TestKnownEdgesAfterDiscovery(t *testing.T) {
	hs := newHarness(t, Options{})
	hs.h.StartDiscovery()
	hs.quiesce(t)
	edges := hs.h.KnownEdges()
	if len(edges) != 1 || edges[0].From != "H" || edges[0].To != "S" {
		t.Fatalf("edges = %v", edges)
	}
	if !hs.h.PathsReady() {
		t.Fatal("paths not ready")
	}
	paths := hs.h.Paths()
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
}

func TestMalformedQueryAnsweredEmpty(t *testing.T) {
	hs := newHarness(t, Options{})
	// A malformed conjunction must still produce an answer so the
	// requester cannot hang.
	// Epoch 0 matches S's initial epoch, so no update wave is kicked off.
	hs.s.Handle(wire.Envelope{From: "H", To: "S", Msg: wire.Query{
		Epoch: 0, RuleID: "r", Conj: "broken(", Path: []string{"H"},
	}})
	hs.quiesce(t)
	if got := hs.h.Counters().Snapshot().MsgsReceived["answer"]; got != 1 {
		t.Fatalf("H received %d answers", got)
	}
}
