package wire

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/relalg"
	"repro/internal/stats"
)

// FuzzDecodeEnvelope hardens the frame boundary: whatever bytes arrive off a
// socket, Decode must either return a valid envelope or an error — never
// panic, and never allocate more than a constant multiple of the frame's
// length (every count in the format is checked against the bytes that remain
// before anything is made for it). Seeds cover the entire kind table — the
// wireexhaustive analyzer fails the build if a kind has no seed here.
func FuzzDecodeEnvelope(f *testing.F) {
	seedMsgs := []Message{
		Query{Epoch: 2, RuleID: "r", Conj: "S:s(X,Y)", Cols: []string{"X"}, Path: []string{"H"}},
		Answer{Epoch: 2, RuleID: "r", Part: "S", Columns: []string{"X"},
			Tuples: []relalg.Tuple{{relalg.S("v")}}, SubID: 3, Seqs: map[string]uint64{"s": 7}},
		// Ints just past the edges of a Value's inline range [-2^29, 2^29),
		// at the edges of the wider range it once had and of int64: all are
		// boxed in the symbol table, the same bytes on the wire.
		Answer{Epoch: 2, RuleID: "r", Part: "S", Columns: []string{"A", "B", "C", "D", "E", "F"},
			Tuples: []relalg.Tuple{{relalg.I(math.MinInt64), relalg.I(math.MaxInt64), relalg.I(1 << 61), relalg.I(-1 << 61),
				relalg.I(1 << 29), relalg.I(-1<<29 - 1)}}},
		AnswerAck{RuleID: "r", SubID: 3, Seqs: map[string]uint64{"s": 7}},
		StartUpdate{Epoch: 1, Origin: "A"},
		Join{Node: "A", Addr: "127.0.0.1:1", Members: map[string]string{"B": "127.0.0.1:2"}},
		AnswerBatch{
			Answers: []Answer{{Epoch: 2, RuleID: "r", Part: "S", Columns: []string{"X"},
				Tuples: []relalg.Tuple{{relalg.S("v")}}, SubID: 3, Seqs: map[string]uint64{"s": 7}}},
			Acks:  []AnswerAck{{RuleID: "r", SubID: 3, Seqs: map[string]uint64{"s": 7}, Durable: true}},
			Beats: []Heartbeat{{Node: "A", Addr: "127.0.0.1:1"}},
		},
		AnswerBatch{}, // empty batch must still decode and size itself
		// Consensus control plane: every Paxos round frame, with and without
		// a carried command, so the decoder's reach covers the replicated
		// log's vocabulary.
		Prepare{Instance: 4, Ballot: 17, Done: 3},
		Promise{Instance: 4, Ballot: 17, OK: true, AccBallot: 9, HasVal: true,
			Val: Command{Kind: "update", Origin: "B", Seq: 2, Node: "B"}, Done: 3},
		Promise{Instance: 4, Ballot: 9, Promised: 17}, // rejection
		Accept{Instance: 4, Ballot: 17,
			Val: Command{Kind: "member", Origin: "A", Seq: 5, Node: "C", Addr: "127.0.0.1:9", Status: 2}},
		Accepted{Instance: 4, Ballot: 17, OK: true, Done: 4},
		Learn{Instance: 4, Val: Command{Kind: "noop", Origin: "C", Seq: 1}, Done: 4},
		Learn{Instance: 9, Val: Command{Kind: "addRule", Origin: "A", Seq: 7,
			Text: "r: B:b(X,Y) -> A:a(X,Y)"}},
		CatchUp{From: 5, Done: 4},
		Snapshot{Through: 40, State: []byte("opaque fold"), Done: 40},
		// Replication stream: the k-way replica vocabulary, alone and riding
		// an AnswerBatch, plus a promotion bid as a replicated-log entry.
		ReplicaAppend{Node: "A", Rel: "s", Base: 3, To: 5,
			Tuples: []relalg.Tuple{{relalg.S("p"), relalg.S("q")}, {relalg.S("r")}}},
		ReplicaAck{Node: "A", Rel: "s", To: 5, Durable: true},
		ReplicaSyncReq{Node: "A", Frontier: map[string]uint64{"s": 3, "t": 0}},
		ReplicaState{Node: "A", Epoch: 2, State: []byte("wal.MarshalState")},
		ReplicaStatusRequest{},
		ReplicaStatusReport{Member: "H1", K: 2, UnderReplicated: 1,
			Entries: []ReplicaStatus{{Node: "A", Role: "primary", Peer: "H2", Applied: 4, Target: 5}}},
		AnswerBatch{
			RepAppends: []ReplicaAppend{{Node: "A", Rel: "s", Base: 0, To: 1,
				Tuples: []relalg.Tuple{{relalg.S("v")}}}},
			RepAcks: []ReplicaAck{{Node: "A", Rel: "s", To: 1, Durable: true}},
		},
		Learn{Instance: 12, Val: Command{Kind: "promoteBid", Origin: "H2", Seq: 3,
			Node: "A", Ref: 41}, Done: 11},
		Accept{Instance: 13, Ballot: 5, Val: Command{Kind: "member", Origin: "H3",
			Seq: 4, Node: "H1", Status: 4}}, // StatusDead
		// Serving wire watches: registration (fresh and resume), a delta with
		// frontier marks, the terminal frame, a cancel, and deltas riding an
		// AnswerBatch.
		WatchRequest{ID: 1, Body: "s(X,Y)", Cols: []string{"X"}, Policy: "drop-oldest", QueueCap: 8},
		WatchRequest{ID: 2, Body: "s(X,Y)", Cols: []string{"Y"}, Resume: true,
			Marks: map[string]uint64{"s": 12}},
		WatchDelta{ID: 1, Seq: 3, Tuples: []relalg.Tuple{{relalg.S("v")}},
			Marks: map[string]uint64{"s": 13}},
		WatchDelta{ID: 1, Seq: 4, Prime: true, Marks: map[string]uint64{"s": 13}},
		WatchDelta{ID: 2, Closed: true, Err: "slow consumer: queue overflow"},
		WatchCancel{ID: 1},
		AnswerBatch{WatchDeltas: []WatchDelta{
			{ID: 1, Seq: 5, Tuples: []relalg.Tuple{{relalg.S("w")}}, Marks: map[string]uint64{"s": 14}},
			{ID: 2, Seq: 1, Prime: true, Marks: map[string]uint64{"s": 14}},
		}},
		// Topology discovery wave (Section 3): request, streamed knowledge,
		// and the branch-complete echo.
		RequestNodes{Wave: "A#3"},
		DiscoveryAnswer{Wave: "A#3", Finished: true,
			Knowledge: []NodeEdges{{Node: "B", Version: 2, Targets: []string{"C", "D"}}}},
		// Control plane: link add/delete notices, the topology-change flood,
		// a full network broadcast, subscription teardown, and the stats verbs.
		Unsubscribe{RuleID: "r"},
		AddRuleNotice{RuleText: "r: B:b(X,Y) -> A:a(X,Y)"},
		DeleteRuleNotice{RuleID: "r"},
		TopoChanged{ChangeID: "A#9"},
		SetNetwork{Text: "node A tcp\nnode B tcp\nr: B:b(X) -> A:a(X)\n"},
		StatsRequest{},
		StatsReport{Snapshot: stats.Snapshot{Node: "A", BytesSent: 64,
			MsgsSent: map[string]uint64{"query": 3}, TuplesInserted: 7}},
		StatsReset{},
		// Cluster membership: the join handshake tail, liveness, clean leave.
		JoinAck{Members: map[string]string{"A": "127.0.0.1:1", "B": "127.0.0.1:2"}},
		Heartbeat{Node: "A", Addr: "127.0.0.1:1"},
		Goodbye{Node: "B"},
		// Remote orchestration verbs (empty-body requests still need decode
		// coverage: a frame that ends at its kind byte is its own corner).
		DiscoverRequest{},
		UpdateRequest{},
		ProbeRequest{},
		StateRequest{},
		StateReport{Node: "A", Epoch: 2, Activated: true, Closed: true, PathsReady: true,
			Tuples: 11, Watchers: 1, WatchQueued: 2, WatchExtracted: 5, WatchSaved: 3},
		// Client query plane: request and both result shapes (rows / error).
		QueryRequest{ID: 4, Body: "a(X,Y), b(Y,Z)", Cols: []string{"X", "Z"}},
		QueryResult{ID: 4, Columns: []string{"X", "Z"},
			Tuples: []relalg.Tuple{{relalg.S("u"), relalg.S("v")}}},
		QueryResult{ID: 5, Err: "parse: unbound variable Z"},
	}
	for _, m := range seedMsgs {
		if data, err := Encode(Envelope{From: "a", To: "b", Msg: m}); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte("not a frame at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env, err := Decode(data)
		runtime.ReadMemStats(&after)
		// The largest blow-ups are a map (some 40 bytes of table per two-byte
		// entry) and a list of tuples (a 24-byte slice header per input
		// byte). The slack covers what the runtime's own goroutines allocate
		// meanwhile.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<16); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if env.Msg == nil {
			t.Fatal("nil message decoded without error")
		}
		// The decoded message must be internally usable: Kind and Size are
		// read on every receive path, and Size is its re-encoded length.
		_ = env.Msg.Kind()
		frame, err := Encode(env)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if got, want := Size(env.Msg), len(frame)-1-relalg.StringSize(env.From)-relalg.StringSize(env.To); got != want {
			t.Fatalf("%s: Size %d, encoded %d", env.Msg.Kind(), got, want)
		}
	})
}

// FuzzAnswerAckRoundTrip round-trips arbitrary ack frontiers through the wire
// encoding: the source trusts the echoed values verbatim, so any lossy or
// corrupting encoding here would silently skip tuples after a crash restart.
func FuzzAnswerAckRoundTrip(f *testing.F) {
	f.Add("r1", uint64(1), "edge", uint64(42))
	f.Add("", uint64(0), "", uint64(0))
	f.Add("rule-with-long-name", uint64(1<<63), "rel\x00odd", uint64(1)<<62)
	f.Fuzz(func(t *testing.T, ruleID string, subID uint64, rel string, seq uint64) {
		in := AnswerAck{RuleID: ruleID, SubID: subID}
		if rel != "" {
			in.Seqs = map[string]uint64{rel: seq}
		}
		data, err := Encode(Envelope{From: "x", To: "y", Msg: in})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		env, err := Decode(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out, ok := env.Msg.(AnswerAck)
		if !ok {
			t.Fatalf("decoded to %T", env.Msg)
		}
		if out.RuleID != ruleID || out.SubID != subID {
			t.Fatalf("identity: got %q/%d want %q/%d", out.RuleID, out.SubID, ruleID, subID)
		}
		if rel != "" && out.Seqs[rel] != seq {
			t.Fatalf("frontier: got %v want %s=%d", out.Seqs, rel, seq)
		}
	})
}

// FuzzReplicaAppendRoundTrip round-trips replication stream frames: a
// replica applies the carried range (Base, To] verbatim against its frontier,
// so a lossy encoding would either open a silent gap (lost tuples surviving a
// primary's death) or mis-align the replica's sequence space with the
// primary's — the property promotion correctness rests on.
func FuzzReplicaAppendRoundTrip(f *testing.F) {
	f.Add("A", "s", uint64(0), uint64(2), "v", "w")
	f.Add("", "", uint64(0), uint64(0), "", "")
	f.Add("node-with-long-name", "rel\x00odd", uint64(1)<<63, uint64(1)<<62, "x", "x")
	f.Fuzz(func(t *testing.T, node, rel string, base, to uint64, v1, v2 string) {
		in := ReplicaAppend{Node: node, Rel: rel, Base: base, To: to,
			Tuples: []relalg.Tuple{{relalg.S(v1)}, {relalg.S(v2), relalg.S(v1)}}}
		data, err := Encode(Envelope{From: "p", To: "r", Msg: in})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		env, err := Decode(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out, ok := env.Msg.(ReplicaAppend)
		if !ok {
			t.Fatalf("decoded to %T", env.Msg)
		}
		if out.Node != node || out.Rel != rel || out.Base != base || out.To != to {
			t.Fatalf("range identity: got %q/%q (%d,%d] want %q/%q (%d,%d]",
				out.Node, out.Rel, out.Base, out.To, node, rel, base, to)
		}
		if len(out.Tuples) != 2 || len(out.Tuples[0]) != 1 || len(out.Tuples[1]) != 2 {
			t.Fatalf("tuple shape: got %v", out.Tuples)
		}
		if out.Tuples[0][0] != relalg.S(v1) || out.Tuples[1][0] != relalg.S(v2) {
			t.Fatalf("tuple values: got %v want [[%s] [%s %s]]", out.Tuples, v1, v2, v1)
		}
	})
}
