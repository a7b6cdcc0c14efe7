package peer

import (
	"maps"
	"reflect"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Acknowledgment-handshake tests: the source's confirmed frontiers must
// advance only on AnswerAck (contiguously, and the persisted one only on
// durability-gated acks), lag behind the in-flight marks while sends are
// being lost, and drive re-sends that close the lost-delta window.

// durableOpts simulates a durable dependent: the sync gate exists and
// succeeds, so its acknowledgments are durability-grade.
func durableOpts() Options {
	return Options{Delta: true, SyncForAck: func() error { return nil }}
}

// subState snapshots one subscription's frontiers under the peer mutex.
func subState(p *Peer, dependent, ruleID string) (marks, acked, ackedDurable storage.Marks, ok bool) {
	p.sh.Lock()
	defer p.sh.Unlock()
	sub, ok := p.subs[subKey(dependent, ruleID)]
	if !ok {
		return nil, nil, nil, false
	}
	return sub.st.Shipped().Clone(), sub.st.Frontier(storage.Received).Clone(), sub.st.Frontier(storage.Durable).Clone(), true
}

func TestAckAdvancesConfirmedFrontiers(t *testing.T) {
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	marks, acked, ackedDurable, ok := subState(hs.s, "H", "r")
	if !ok {
		t.Fatal("S holds no subscription for H")
	}
	if len(marks) == 0 || marks["s"] == 0 {
		t.Fatalf("in-flight marks not primed: %v", marks)
	}
	if !acked.Covers(marks) {
		t.Fatalf("after quiescence the receipt frontier must cover the shipped one: acked=%v marks=%v", acked, marks)
	}
	if !ackedDurable.Covers(marks) {
		t.Fatalf("durability-gated acks must advance the durable frontier too: ackedDurable=%v marks=%v", ackedDurable, marks)
	}
	// The handshake generated real ack traffic, counted like any protocol
	// message (quiescence detection depends on that).
	if got := hs.h.Counters().Snapshot().MsgsSent["answerAck"]; got == 0 {
		t.Fatal("H sent no answerAck")
	}
	if got := hs.s.Counters().Snapshot().MsgsReceived["answerAck"]; got == 0 {
		t.Fatal("S received no answerAck")
	}
}

func TestNonDurableAckNotPersisted(t *testing.T) {
	// No sync gate: acks confirm receipt only. The receipt frontier serves
	// live retransmission; the persisted (durable) frontier must stay put —
	// a dependent that never synced may lose everything it acknowledged.
	hs := newHarness(t, Options{Delta: true})
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	marks, acked, ackedDurable, _ := subState(hs.s, "H", "r")
	if !acked.Covers(marks) {
		t.Fatalf("receipt frontier must still advance: acked=%v marks=%v", acked, marks)
	}
	if ackedDurable["s"] != 0 {
		t.Fatalf("ungated acks advanced the durable frontier: %v", ackedDurable)
	}
	for _, ss := range hs.s.DurableSubs() {
		if ss.Dependent == "H" && ss.RuleID == "r" && ss.Marks["s"] != 0 {
			t.Fatalf("durable subs persist an unconfirmed frontier: %v", ss.Marks)
		}
	}
	// A clean close promotes receipt to durability grade (the network-wide
	// seal is what makes received data durable).
	hs.s.SealFrontiers()
	for _, ss := range hs.s.DurableSubs() {
		if ss.Dependent == "H" && ss.RuleID == "r" && ss.Marks["s"] != acked["s"] {
			t.Fatalf("seal promotion: durable subs carry %v, want %v", ss.Marks, acked)
		}
	}
}

func TestStaleSubIDAckIgnored(t *testing.T) {
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	_, before, _, _ := subState(hs.s, "H", "r")
	// An ack echoing a defunct subscription instance must not move the
	// frontier: its seqs confirm answers to a different question.
	hs.s.Handle(wire.Envelope{From: "H", To: "S", Msg: wire.AnswerAck{
		RuleID: "r", SubID: 999999, Durable: true, Seqs: map[string]uint64{"s": 1 << 30},
	}})
	_, after, _, _ := subState(hs.s, "H", "r")
	if after["s"] != before["s"] {
		t.Fatalf("stale ack advanced the frontier: %v -> %v", before, after)
	}
}

func TestGappedAckIgnored(t *testing.T) {
	// The contiguity gate: an ack whose Base lies beyond the confirmed
	// frontier is the shadow of a dropped earlier answer (outbox overflow,
	// write error) — extending past it would bury the dropped delta below
	// the frontier forever.
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	hs.s.sh.Lock()
	subID := hs.s.subs[subKey("H", "r")].id
	hs.s.sh.Unlock()
	_, before, _, _ := subState(hs.s, "H", "r")
	gapBase := before["s"] + 5
	hs.s.Handle(wire.Envelope{From: "H", To: "S", Msg: wire.AnswerAck{
		RuleID: "r", SubID: subID, Durable: true,
		Base: map[string]uint64{"s": gapBase},
		Seqs: map[string]uint64{"s": gapBase + 3},
	}})
	_, after, afterDur, _ := subState(hs.s, "H", "r")
	if after["s"] != before["s"] || afterDur["s"] != before["s"] {
		t.Fatalf("gapped ack extended the frontier: %v -> acked=%v durable=%v", before, after, afterDur)
	}
	// A contiguous ack (base at the frontier) extends normally.
	hs.s.Handle(wire.Envelope{From: "H", To: "S", Msg: wire.AnswerAck{
		RuleID: "r", SubID: subID, Durable: true,
		Base: map[string]uint64{"s": before["s"]},
		Seqs: map[string]uint64{"s": before["s"] + 2},
	}})
	_, after, _, _ = subState(hs.s, "H", "r")
	if after["s"] != before["s"]+2 {
		t.Fatalf("contiguous ack did not extend the frontier: %v", after)
	}
}

func TestLostDeltaLeavesAckedBehind(t *testing.T) {
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	// Cut the link and push a fresh delta: the evaluation advances the
	// in-flight marks, the partition eats the answer, the ack never comes.
	hs.tr.Partition("S", "H")
	if _, err := hs.s.InsertLocal("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	hs.quiesce(t)
	marks, acked, _, _ := subState(hs.s, "H", "r")
	if marks["s"] <= acked["s"] {
		t.Fatalf("lost delta should leave acked behind: marks=%v acked=%v", marks, acked)
	}
	// The durable form must seal the confirmed frontier — persisting the
	// in-flight one is exactly the bug the handshake fixes.
	for _, ss := range hs.s.DurableSubs() {
		if ss.Dependent == "H" && ss.RuleID == "r" && ss.Marks["s"] != acked["s"] {
			t.Fatalf("durable subs carry %v, want confirmed %v", ss.Marks, acked)
		}
	}
}

func TestEpochBumpReShipsUnacked(t *testing.T) {
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	hs.tr.Partition("S", "H")
	if _, err := hs.s.InsertLocal("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	hs.quiesce(t)
	if got := hs.h.DB().Count("h"); got != 1 {
		t.Fatalf("partitioned H should still hold 1 tuple, has %d", got)
	}
	// Heal and run a fresh epoch: the re-query resumes from the confirmed
	// frontier, so the swallowed delta ships now — before the handshake the
	// carried in-flight marks skipped it forever.
	hs.tr.Heal("S", "H")
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	if got := hs.h.DB().Count("h"); got != 2 {
		t.Fatalf("h = %d after the healing epoch, want 2 (lost delta re-shipped)", got)
	}
	marks, acked, _, _ := subState(hs.s, "H", "r")
	if !acked.Covers(marks) {
		t.Fatalf("frontier did not reconverge: marks=%v acked=%v", marks, acked)
	}
}

func TestResendLoopReShipsUnacked(t *testing.T) {
	opts := durableOpts()
	opts.ResendEvery = 25 * time.Millisecond
	hs := newHarness(t, opts)
	defer hs.s.CloseWatchers() // stops the resend loop
	defer hs.h.CloseWatchers()
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	hs.tr.Partition("S", "H")
	if _, err := hs.s.InsertLocal("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	hs.quiesce(t)
	hs.tr.Heal("S", "H")
	// No epoch bump, no probe: the timeout-driven resend alone must notice
	// the stalled frontier and re-ship from the receipt frontier.
	deadline := time.Now().Add(5 * time.Second)
	for hs.h.DB().Count("h") != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("resend loop never re-shipped: h = %d", hs.h.DB().Count("h"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestResendUnackedToTargetsOneDependent(t *testing.T) {
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	hs.tr.Partition("S", "H")
	if _, err := hs.s.InsertLocal("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	hs.quiesce(t)
	hs.tr.Heal("S", "H")
	// The cluster layer's rejoin trigger: re-ship everything H never
	// durably confirmed.
	hs.s.ResendUnackedTo("H")
	hs.quiesce(t)
	if got := hs.h.DB().Count("h"); got != 2 {
		t.Fatalf("h = %d after ResendUnackedTo, want 2", got)
	}
	// A second call finds the durable frontier converged and sends nothing.
	before := hs.s.Counters().Snapshot().TotalSent()
	hs.s.ResendUnackedTo("H")
	hs.quiesce(t)
	if after := hs.s.Counters().Snapshot().TotalSent(); after != before {
		t.Fatalf("converged frontier still re-sent: %d -> %d messages", before, after)
	}
}

func TestSendErrorsCounted(t *testing.T) {
	hs := newHarness(t, Options{Delta: true})
	before := hs.s.Counters().Snapshot().SendErrors
	started, _ := hs.s.Counters().Totals()
	hs.s.Send("NO-SUCH-PEER", wire.StatsRequest{})
	if got := hs.s.Counters().Snapshot().SendErrors; got != before+1 {
		t.Fatalf("send error not counted: %d -> %d", before, got)
	}
	// Nobody will ever receive it: left in the started total it would read
	// as in flight to every later quiescence poll.
	if got, _ := hs.s.Counters().Totals(); got != started {
		t.Fatalf("a refused send moved the started total: %d -> %d", started, got)
	}
}

// TestMergeAcksBases pins how folded acknowledgments combine their ranges:
// per relation the lowest base and the highest seq, where a missing Base
// entry is the implicit zero of a priming answer — whichever ack comes first.
func TestMergeAcksBases(t *testing.T) {
	ack := func(base, seqs map[string]uint64) pendingAck {
		return pendingAck{to: "S", msg: wire.AnswerAck{RuleID: "r", SubID: 7, Base: base, Seqs: seqs}}
	}
	type m = map[string]uint64
	cases := []struct {
		name     string
		a, b     pendingAck
		wantBase m // zero entries omitted
		wantSeqs m
		apart    bool // the two must not be folded
	}{
		{"absent then non-zero", ack(nil, m{"s": 1}), ack(m{"s": 1}, m{"s": 2}), m{}, m{"s": 2}, false},
		{"explicit zero then non-zero", ack(m{"s": 0}, m{"s": 1}), ack(m{"s": 1}, m{"s": 2}), m{}, m{"s": 2}, false},
		{"non-zero then non-zero", ack(m{"s": 3}, m{"s": 5}), ack(m{"s": 5}, m{"s": 9}), m{"s": 3}, m{"s": 9}, false},
		{"disjoint relations", ack(nil, m{"s": 4}), ack(m{"u": 2}, m{"u": 6}), m{"u": 2}, m{"s": 4, "u": 6}, false},
		{"absent base on one of two relations", ack(m{"u": 2}, m{"s": 1, "u": 3}), ack(m{"s": 1, "u": 3}, m{"s": 2, "u": 3}), m{"u": 2}, m{"s": 2, "u": 3}, false},
		{"gap between the ranges", ack(nil, m{"s": 1}), ack(m{"s": 3}, m{"s": 5}), nil, nil, true},
	}
	for _, tc := range cases {
		for _, order := range []struct {
			name string
			in   []pendingAck
		}{{"forward", []pendingAck{tc.a, tc.b}}, {"reversed", []pendingAck{tc.b, tc.a}}} {
			t.Run(tc.name+"/"+order.name, func(t *testing.T) {
				inBase, inSeqs := maps.Clone(order.in[0].msg.Base), maps.Clone(order.in[0].msg.Seqs)
				out := mergeAcks(order.in)
				if tc.apart {
					if len(out) != 2 {
						t.Fatalf("acks across a gap were folded: %+v", out)
					}
					return
				}
				if len(out) != 1 {
					t.Fatalf("got %d acks, want 1: %+v", len(out), out)
				}
				got := out[0].msg
				for rel, base := range got.Base {
					if base == 0 {
						delete(got.Base, rel)
					}
				}
				if len(got.Base) != len(tc.wantBase) || len(got.Seqs) != len(tc.wantSeqs) {
					t.Fatalf("merged base=%v seqs=%v, want base=%v seqs=%v", got.Base, got.Seqs, tc.wantBase, tc.wantSeqs)
				}
				for rel, want := range tc.wantBase {
					if got.Base[rel] != want {
						t.Fatalf("merged base=%v, want %v", got.Base, tc.wantBase)
					}
				}
				for rel, want := range tc.wantSeqs {
					if got.Seqs[rel] != want {
						t.Fatalf("merged seqs=%v, want %v", got.Seqs, tc.wantSeqs)
					}
				}
				// The inputs' maps are shared with the answers: untouched.
				if !reflect.DeepEqual(inBase, order.in[0].msg.Base) || !reflect.DeepEqual(inSeqs, order.in[0].msg.Seqs) {
					t.Fatalf("merge mutated its first input: base=%v seqs=%v", order.in[0].msg.Base, order.in[0].msg.Seqs)
				}
			})
		}
	}
}

// TestAnswerBeingAcknowledgedIsNotFinished pins where Received is counted on
// a durable peer: after the acknowledgment the message caused has been sent,
// not when its handler started. While H's pre-ack sync is still running the
// answer reads started at S and not finished at H — a poller must see it in
// flight — and once it is finished its ack is already counted sent.
func TestAnswerBeingAcknowledgedIsNotFinished(t *testing.T) {
	gate := make(chan struct{}, 64) // one token lets one sync through
	opts := Options{Delta: true, SyncForAck: func() error { <-gate; return nil }}
	hs := newHarness(t, opts)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() { // the baseline wave syncs as often as it likes
		defer close(stopped)
		for {
			select {
			case gate <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	close(stop)
	<-stopped
	for len(gate) > 0 {
		<-gate
	}
	balance := func() (started, finished uint64) {
		for _, p := range []*Peer{hs.s, hs.h} {
			s, f := p.Counters().Totals()
			started, finished = started+s, finished+f
		}
		return started, finished
	}
	if s, f := balance(); s != f {
		t.Fatalf("quiescent pair reads %d started, %d finished", s, f)
	}
	answers := func() uint64 { return hs.h.Counters().Snapshot().MsgsReceived["answer"] }
	acks := func() uint64 { return hs.h.Counters().Snapshot().MsgsSent["answerAck"] }
	answers0, acks0 := answers(), acks()

	if _, err := hs.s.InsertLocal("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	// H applies the answer and parks in the sync gate.
	deadline := time.Now().Add(5 * time.Second)
	for hs.h.DB().Count("h") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("H never applied the pushed answer")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // Handle has long returned; only the gate holds the ack
	if s, f := balance(); s != f+1 || answers() != answers0 || acks() != acks0 {
		t.Fatalf("while H is still acknowledging: %d started, %d finished, %d answers received (before: %d), %d acks sent (before: %d); want exactly the answer outstanding",
			s, f, answers(), answers0, acks(), acks0)
	}
	gate <- struct{}{}
	for answers() == answers0 {
		if time.Now().After(deadline) {
			t.Fatal("the acknowledged answer was never counted received")
		}
		time.Sleep(time.Millisecond)
	}
	if acks() != acks0+1 {
		t.Fatalf("answer counted received with %d acks sent, want %d: the effect must start before its cause finishes", acks(), acks0+1)
	}
	gate <- struct{}{} // S persists the advanced frontier behind its own gate
	hs.quiesce(t)
	if s, f := balance(); s != f {
		t.Fatalf("settled pair reads %d started, %d finished", s, f)
	}
}
