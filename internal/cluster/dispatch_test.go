package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// sink records which consumer saw which frame kinds, in arrival order.
type sink struct {
	mu   sync.Mutex
	seen []string
}

func (s *sink) add(who string, msg wire.Message) {
	kind := msg.Kind()
	if b, ok := msg.(wire.AnswerBatch); ok {
		// A batch that reaches a peer must carry the database plane only.
		kind = fmt.Sprintf("answerBatch(%d answers,%d acks,%d beats,%d appends,%d repacks,%d deltas)",
			len(b.Answers), len(b.Acks), len(b.Beats), len(b.RepAppends), len(b.RepAcks), len(b.WatchDeltas))
	}
	s.mu.Lock()
	s.seen = append(s.seen, who+":"+kind)
	s.mu.Unlock()
}

func (s *sink) take() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := strings.Join(s.seen, " ")
	s.seen = nil
	return out
}

// TestDispatchRoutesAdoptedNameLikeOwn pins the one dispatch path: a frame
// addressed to an adopted name takes exactly the route the same frame takes
// under the process's own name — bare or riding a batch — and the only
// name-dependent rule is that an adopted name drops consensus rounds. (The
// parent's second dispatcher handed batched replication frames to the replica
// manager but let the same frames sent bare fall through to the adopted peer,
// which ignored them.)
func TestDispatchRoutesAdoptedNameLikeOwn(t *testing.T) {
	tr, err := New("A", "127.0.0.1:0", nil, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var got sink
	tr.SetReplica(func(env wire.Envelope) bool { got.add("replica", env.Msg); return true })
	tr.SetConsensus(func(env wire.Envelope) bool { got.add("plane", env.Msg); return false })
	if err := tr.Register("A", func(env wire.Envelope) { got.add("peerA", env.Msg) }); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register("E", func(wire.Envelope) {}); err == nil {
		t.Fatal("registering a foreign name without AllowAlias must fail")
	}
	tr.AllowAlias("E")
	if err := tr.Register("E", func(env wire.Envelope) { got.add("peerE", env.Msg) }); err != nil {
		t.Fatal(err)
	}

	app := wire.ReplicaAppend{Node: "E", Rel: "e", Base: 0, To: 1}
	ack := wire.ReplicaAck{Node: "E", Rel: "e", To: 1, Durable: true}
	delta := wire.WatchDelta{ID: 7}
	batch := wire.AnswerBatch{
		Answers:     []wire.Answer{{RuleID: "r"}},
		Beats:       []wire.Heartbeat{{Node: "B", Addr: "127.0.0.1:1"}},
		RepAppends:  []wire.ReplicaAppend{app},
		RepAcks:     []wire.ReplicaAck{ack},
		WatchDeltas: []wire.WatchDelta{delta},
	}
	const batchAtPeer = "answerBatch(1 answers,0 acks,0 beats,0 appends,0 repacks,0 deltas)"
	cases := []struct {
		name string
		msg  wire.Message
		want string // %[1]s stands for the addressed name's peer
	}{
		{"bare append", app, "replica:replicaAppend"},
		{"bare ack", ack, "replica:replicaAck"},
		{"bare sync request", wire.ReplicaSyncReq{Node: "E"}, "replica:replicaSync"},
		{"batch", batch, "replica:replicaAck replica:replicaAppend plane:watchDelta %[1]s:watchDelta plane:" + batchAtPeer + " %[1]s:" + batchAtPeer},
		{"replica-only batch", wire.AnswerBatch{RepAcks: []wire.ReplicaAck{ack}}, "replica:replicaAck"},
		{"protocol frame", wire.Query{RuleID: "r"}, "plane:query %[1]s:query"},
	}
	for _, tc := range cases {
		for _, name := range []string{"A", "E"} {
			tr.dispatch(name, wire.Envelope{From: "B", To: name, Msg: tc.msg})
			want := tc.want
			if strings.Contains(want, "%") {
				want = fmt.Sprintf(want, "peer"+name)
			}
			if seen := got.take(); seen != want {
				t.Errorf("%s addressed to %s:\n got %q\nwant %q", tc.name, name, seen, want)
			}
		}
	}
	if st := statusOf(tr, "B"); st != StatusAlive {
		t.Errorf("the batch's piggybacked heartbeat left B %s, want alive", st)
	}

	// The one name-dependent rule: consensus rounds reach the plane under the
	// process's own name and are dropped under an adopted one.
	for _, msg := range []wire.Message{wire.Prepare{}, wire.Promise{}, wire.Accept{}, wire.Accepted{},
		wire.Learn{}, wire.CatchUp{}, wire.Snapshot{}} {
		tr.dispatch("A", wire.Envelope{From: "B", To: "A", Msg: msg})
		if seen, want := got.take(), "plane:"+msg.Kind()+" peerA:"+msg.Kind(); seen != want {
			t.Errorf("%s addressed to A: got %q want %q", msg.Kind(), seen, want)
		}
		tr.dispatch("E", wire.Envelope{From: "B", To: "E", Msg: msg})
		if seen := got.take(); seen != "" {
			t.Errorf("%s addressed to the adopted name reached %q; a dead member's Paxos identity is not inherited", msg.Kind(), seen)
		}
	}

	// After Unregister the name is nobody's here: its frames go nowhere and a
	// later adoption can register it afresh.
	tr.Unregister("E")
	tr.dispatch("E", wire.Envelope{From: "B", To: "E", Msg: wire.Query{RuleID: "r"}})
	if seen := got.take(); seen != "plane:query" {
		t.Errorf("after Unregister a frame for E reached %q", seen)
	}
	tr.AllowAlias("E")
	if err := tr.Register("E", func(wire.Envelope) {}); err != nil {
		t.Fatalf("re-adopting a released name: %v", err)
	}
}

// TestJoinAckLeavesUnderAddressedName: a Join that reached this process under
// an adopted name is acknowledged from that name, so the joiner marks the
// name — not just its host — alive at this address.
func TestJoinAckLeavesUnderAddressedName(t *testing.T) {
	tr, err := New("A", "127.0.0.1:0", nil, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.AllowAlias("E")
	if err := tr.Register("E", func(wire.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	joiner, err := transport.NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	acks := make(chan wire.Envelope, 4)
	if err := joiner.Register("B", func(env wire.Envelope) {
		if _, ok := env.Msg.(wire.JoinAck); ok {
			acks <- env
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"E", "A"} {
		tr.dispatch(name, wire.Envelope{From: "B", To: name, Msg: wire.Join{Node: "B", Addr: joiner.Addr()}})
		select {
		case env := <-acks:
			if env.From != name {
				t.Errorf("Join addressed to %s was acknowledged from %q", name, env.From)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no JoinAck for the Join addressed to %s", name)
		}
	}
}
