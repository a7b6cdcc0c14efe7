package wire

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/stats"
)

// goldenFrames pins format version 1: one row per kind of the kind table, the
// envelope X→Y around msg encoding to exactly these bytes. A change here is a
// format change — bump formatVersion. Messages are in decoded form (empty
// lists and maps nil), so the same rows check Decode.
var goldenFrames = []struct {
	msg Message
	hex string
}{
	{RequestNodes{Wave: "A#1"}, "02015801590103412331"},
	{DiscoveryAnswer{Wave: "A#1", Knowledge: []NodeEdges{{Node: "A", Version: 2, Targets: []string{"B", "C"}}}, Finished: true}, "0201580159020341233101014102020142014301"},
	{StartUpdate{Epoch: 3, Origin: "A"}, "020158015903030141"},
	{Query{Epoch: 3, RuleID: "r2", Conj: "B:b(X,Y)", Cols: []string{"X", "Y"}, Path: []string{"C", "A"}, Scoped: true, Incarnation: 300}, "0201580159040302723208423a6228582c59290201580159020143014101ac02"},
	{Answer{Epoch: 3, RuleID: "r2", Part: "B", Columns: []string{"X", "Z"},
		Tuples:   []relalg.Tuple{{relalg.S("a"), relalg.I(-42)}, {relalg.Null("d1|r|V|k"), relalg.S("it's")}},
		Complete: true, Delta: true, Route: []string{"B", "A"}, SubID: 9,
		Base: map[string]uint64{"b": 12}, Seqs: map[string]uint64{"c": 4, "b": 17}}, "020158015905030272320142020158015a020202006102015302090264317c727c567c6b05006974277301010201420141090101620c02016211016304"},
	{AnswerAck{RuleID: "r2", SubID: 9, Base: map[string]uint64{"b": 12}, Seqs: map[string]uint64{"b": 17}, Durable: true}, "020158015906027232090101620c0101621101"},
	{AnswerBatch{
		Answers:     []Answer{{RuleID: "r", Tuples: []relalg.Tuple{{relalg.S("v")}}, Seqs: map[string]uint64{"s": 7}}},
		Acks:        []AnswerAck{{RuleID: "r", SubID: 3, Seqs: map[string]uint64{"s": 7}}},
		Beats:       []Heartbeat{{Node: "A", Addr: "h:1"}},
		RepAppends:  []ReplicaAppend{{Node: "A", Rel: "s", To: 1, Tuples: []relalg.Tuple{{relalg.I(5)}}}},
		RepAcks:     []ReplicaAck{{Node: "A", Rel: "s", To: 1, Durable: true}},
		WatchDeltas: []WatchDelta{{ID: 1, Seq: 2, Tuples: []relalg.Tuple{{relalg.S("w")}}, Marks: map[string]uint64{"s": 8}}},
	}, "02015801590701000172000001010200760000000000010173070101720300010173070001014103683a310101410173000001010102010a01014101730101010102000101020077010173080000"},
	{Unsubscribe{RuleID: "r9"}, "020158015908027239"},
	{AddRuleNotice{RuleText: "r9: A:a(X) -> B:b(X)"}, "0201580159091472393a20413a61285829202d3e20423a62285829"},
	{DeleteRuleNotice{RuleID: "r9"}, "02015801590a027239"},
	{TopoChanged{ChangeID: "c1"}, "02015801590b026331"},
	{SetNetwork{Text: "node A"}, "02015801590c066e6f64652041"},
	{StatsRequest{Seq: 9}, "02015801590d09"},
	{StatsReport{Snapshot: stats.Snapshot{Node: "A", MsgsSent: map[string]uint64{"query": 3}, MsgsReceived: map[string]uint64{"answer": 2},
		BytesSent: 64, BytesRecv: 65, QueriesExecuted: 1, UpdatesApplied: 2, TuplesInserted: 7, TuplesDuplicate: 3,
		DuplicateQueries: 4, Truncated: 5, SendErrors: 6, DiscoveryClosed: time.Millisecond, UpdateClosed: -1}, Seq: 9}, "02015801590e014101057175657279030106616e737765720240410102070304050680897a0109"},
	{StatsReset{}, "02015801590f"},
	{Join{Node: "A", Addr: "h:1", Members: map[string]string{"C": "h:3", "B": "h:2"}}, "020158015910014103683a3102014203683a32014303683a33"},
	{JoinAck{Members: map[string]string{"A": "h:1"}}, "02015801591101014103683a31"},
	{Heartbeat{Node: "B", Addr: "h:2"}, "020158015912014203683a32"},
	{Goodbye{Node: "C"}, "0201580159130143"},
	{Prepare{Instance: 3, Ballot: 12, Done: 2}, "020158015914030c02"},
	{Promise{Instance: 3, Ballot: 12, OK: true, Promised: 1, AccBallot: 5, HasVal: true,
		Val: Command{Kind: "member", Origin: "A", Seq: 1, Node: "C", Addr: "h:3", Status: 2, Text: "t", Ref: 41}, Done: 2}, "020158015915030c01010501066d656d626572014101014303683a330201742902"},
	{Accept{Instance: 3, Ballot: 12, Val: Command{Kind: "update", Origin: "B", Seq: 4, Node: "B"}, Done: 1}, "020158015916030c0675706461746501420401420000000001"},
	{Accepted{Instance: 3, Ballot: 12, OK: true, Promised: 13, Done: 2}, "020158015917030c010d02"},
	{Learn{Instance: 3, Val: Command{Kind: "noop", Origin: "B", Seq: 5}, Done: 3}, "02015801591803046e6f6f70014205000000000003"},
	{CatchUp{From: 4, Done: 3}, "0201580159190403"},
	{Snapshot{Through: 40, State: []byte("fold"), Done: 40}, "02015801591a2804666f6c6428"},
	{DiscoverRequest{}, "02015801591b"},
	{UpdateRequest{}, "02015801591c"},
	{ProbeRequest{}, "02015801591d"},
	{StateRequest{}, "02015801591e"},
	{StateReport{Node: "A", Epoch: 4, Activated: true, Closed: true, PathsReady: true, Waves: 2, Tuples: 12, Watchers: 1,
		WatchQueued: 2, WatchExtracted: 5, WatchSaved: 3, WatchDropped: 1, WatchCanceled: 1, BadFrames: 9}, "02015801591f014104010101021802040503010109"},
	{QueryRequest{ID: 7, Body: "a(X,Y)", Cols: []string{"X", "Y"}}, "02015801592007066128582c59290201580159"},
	{QueryResult{ID: 7, Columns: []string{"X"}, Tuples: []relalg.Tuple{{relalg.S("v")}, nil}, Err: "e"}, "020158015921070101580201020076000165"},
	{ReplicaAppend{Node: "A", Rel: "s", Attrs: []string{"x", "y"}, Base: 3, To: 5,
		Tuples: []relalg.Tuple{{relalg.S("p"), relalg.S("q")}, {relalg.S("r"), relalg.I(1 << 40)}}}, "02015801592201410173020178017903050202020070020071020200720701808080808040"},
	{ReplicaAck{Node: "A", Rel: "s", To: 5, Durable: true}, "020158015923014101730501"},
	{ReplicaSyncReq{Node: "A", Frontier: map[string]uint64{"t": 0, "s": 3}}, "020158015924014102017303017400"},
	{ReplicaState{Node: "A", Epoch: 2, State: []byte{0, 1, 2}}, "02015801592501410203000102"},
	{ReplicaStatusRequest{}, "020158015926"},
	{ReplicaStatusReport{Member: "H1", K: 2, UnderReplicated: 1,
		Entries: []ReplicaStatus{{Node: "A", Role: "primary", Peer: "H2", Applied: 4, Target: 5}}}, "0201580159270248310402010141077072696d6172790248320405"},
	{WatchRequest{ID: 2, Body: "a(X,Y)", Cols: []string{"X"}, Policy: "block", QueueCap: 16, Resume: true, Marks: map[string]uint64{"a": 9}}, "02015801592802066128582c592901015805626c6f636b200101016109"},
	{WatchDelta{ID: 2, Seq: 4, Prime: true, Tuples: []relalg.Tuple{{relalg.S("v")}}, Marks: map[string]uint64{"a": 10}, Closed: true, Err: "slow"}, "02015801592902040101010200760101610a0104736c6f77"},
	{WatchCancel{ID: 2}, "02015801592a02"},
}

// TestGoldenFrames checks every row both ways and that the rows are the kind
// table: kinds 1..len(goldenFrames) in order, and the next byte unknown.
func TestGoldenFrames(t *testing.T) {
	for i, g := range goldenFrames {
		env := Envelope{From: "X", To: "Y", Msg: g.msg}
		data, err := Encode(env)
		if err != nil {
			t.Fatalf("%s: %v", g.msg.Kind(), err)
		}
		if got := hex.EncodeToString(data); got != g.hex {
			t.Errorf("%s encodes to\n  %s, pinned\n  %s", g.msg.Kind(), got, g.hex)
		}
		if k := data[5]; int(k) != i+1 { // version, "X", "Y", then the kind byte
			t.Errorf("row %d (%s) has kind byte %d: keep the rows in kind-table order", i, g.msg.Kind(), k)
		}
		want, _ := hex.DecodeString(g.hex)
		back, err := Decode(want)
		if err != nil {
			t.Errorf("%s: pinned bytes do not decode: %v", g.msg.Kind(), err)
		} else if !reflect.DeepEqual(back, env) {
			t.Errorf("%s: pinned bytes decode to\n  %+v, want\n  %+v", g.msg.Kind(), back, env)
		}
	}
	next := []byte{formatVersion, 1, 'X', 1, 'Y', byte(len(goldenFrames) + 1)}
	if _, err := Decode(next); !errors.Is(err, ErrKind) {
		t.Errorf("kind %d decodes (%v): the kind table grew without a golden row", len(goldenFrames)+1, err)
	}
}

// fill sets v to a random value of its type, in decoded form: an empty list
// or map is nil. It reaches every exported field of every message, so a
// field the codec forgets fails the round trip below.
func fill(v reflect.Value, rng *rand.Rand) {
	switch v.Interface().(type) {
	case relalg.Value:
		val := []relalg.Value{relalg.S(randStr(rng)), relalg.I(rng.Int63() - rng.Int63()), relalg.Null(randStr(rng))}[rng.Intn(3)]
		v.Set(reflect.ValueOf(val))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), rng)
		}
	case reflect.String:
		v.SetString(randStr(rng))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(rng.Int63() - rng.Int63())
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(rng.Uint64() >> uint(rng.Intn(64)))
	case reflect.Slice:
		if n := rng.Intn(4); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(v.Index(i), rng)
			}
		}
	case reflect.Map:
		if n := rng.Intn(4); n > 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < n; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(k, rng)
				fill(e, rng)
				v.SetMapIndex(k, e)
			}
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

func randStr(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(12))
	rng.Read(b)
	return string(b)
}

// TestRoundTripEveryKind is the codec's property: for random values of every
// message type, Decode(Encode(m)) equals m (in decoded form) field for field.
func TestRoundTripEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range goldenFrames {
		for i := 0; i < 200; i++ {
			mp := reflect.New(reflect.TypeOf(g.msg))
			fill(mp.Elem(), rng)
			env := Envelope{From: randStr(rng), To: randStr(rng), Msg: mp.Elem().Interface().(Message)}
			data, err := Encode(env)
			if err != nil {
				t.Fatalf("%s: %v", g.msg.Kind(), err)
			}
			back, err := Decode(data)
			if err != nil {
				t.Fatalf("%s: %v\n  %+v", g.msg.Kind(), err, env)
			}
			if !reflect.DeepEqual(back, env) {
				t.Fatalf("%s round trip:\n  got  %+v\n  want %+v", g.msg.Kind(), back, env)
			}
		}
	}
}

// TestDecodeRejections: each way a frame can be wrong has its own error, so
// a transport's bad-frame count can be told apart in a log.
func TestDecodeRejections(t *testing.T) {
	good, err := Encode(Envelope{From: "X", To: "Y", Msg: StartUpdate{Epoch: 3, Origin: "A"}})
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrVersion},
		{"other version", mut(func(b []byte) []byte { b[0] = formatVersion + 1; return b }), ErrVersion},
		{"text", []byte("not a frame at all"), ErrVersion},
		{"unknown kind", mut(func(b []byte) []byte { b[5] = 250; return b }), ErrKind},
		{"kind zero", mut(func(b []byte) []byte { b[5] = 0; return b }), ErrKind},
		{"truncated", good[:len(good)-1], relalg.ErrCorrupt},
		{"trailing bytes", append(append([]byte(nil), good...), 0), relalg.ErrCorrupt},
		{"count past the end", []byte{formatVersion, 1, 'X', 1, 'Y', byte(kQueryRequest), 7, 0, 200}, relalg.ErrCorrupt},
	} {
		if _, err := Decode(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	type notInTheTable struct{ Message }
	if _, err := Encode(Envelope{Msg: notInTheTable{}}); !errors.Is(err, ErrKind) {
		t.Errorf("encode of a type outside the kind table: got %v, want ErrKind", err)
	}
}

func TestAnswerTuplesSurviveCodec(t *testing.T) {
	in := Answer{
		RuleID:  "r",
		Columns: []string{"X"},
		Tuples: []relalg.Tuple{
			{relalg.S("s")}, {relalg.I(-9)}, {relalg.Null("lbl")},
		},
	}
	data, err := Encode(Envelope{From: "a", To: "b", Msg: in})
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	out := env.Msg.(Answer)
	if len(out.Tuples) != 3 {
		t.Fatalf("tuples = %v", out.Tuples)
	}
	if out.Tuples[0][0] != relalg.S("s") || out.Tuples[1][0] != relalg.I(-9) || out.Tuples[2][0] != relalg.Null("lbl") {
		t.Fatalf("values corrupted: %v", out.Tuples)
	}
}

// TestSizeIsTheEncodedLength: Size is the frame Encode writes minus the
// envelope header, for every kind — the golden rows and random values alike,
// maps of several keys included — and no two kinds share a name.
func TestSizeIsTheEncodedLength(t *testing.T) {
	check := func(env Envelope, frame []byte) {
		t.Helper()
		header := 1 + relalg.StringSize(env.From) + relalg.StringSize(env.To)
		if got, want := Size(env.Msg), len(frame)-header; got != want {
			t.Fatalf("%s: Size %d, encoded %d", env.Msg.Kind(), got, want)
		}
	}
	rng := rand.New(rand.NewSource(2))
	kinds := map[string]bool{}
	for _, g := range goldenFrames {
		frame, _ := hex.DecodeString(g.hex)
		check(Envelope{From: "X", To: "Y", Msg: g.msg}, frame)
		if kinds[g.msg.Kind()] {
			t.Errorf("duplicate kind %s", g.msg.Kind())
		}
		kinds[g.msg.Kind()] = true
		for i := 0; i < 100; i++ {
			mp := reflect.New(reflect.TypeOf(g.msg))
			fill(mp.Elem(), rng)
			env := Envelope{From: randStr(rng), To: randStr(rng), Msg: mp.Elem().Interface().(Message)}
			frame, err := Encode(env)
			if err != nil {
				t.Fatal(err)
			}
			check(env, frame)
		}
	}
	type notInTheTable struct{ Message }
	if n := Size(notInTheTable{}); n != 0 {
		t.Errorf("a type outside the kind table sized %d, want 0", n)
	}
}

// TestControlKindsCoverControlPlane pins the exclusion set the polling
// quiescers rely on: every control-plane kind is in it, no protocol kind is.
func TestControlKindsCoverControlPlane(t *testing.T) {
	ck := ControlKinds
	for _, m := range []Message{
		StatsRequest{}, StatsReport{}, StatsReset{},
		DiscoverRequest{}, UpdateRequest{}, ProbeRequest{},
		StateRequest{}, StateReport{}, QueryRequest{}, QueryResult{},
		WatchRequest{}, WatchDelta{}, WatchCancel{},
		Prepare{}, Promise{}, Accept{}, Accepted{}, Learn{}, CatchUp{},
	} {
		if !ck[m.Kind()] {
			t.Errorf("control kind %s missing from ControlKinds", m.Kind())
		}
	}
	for _, m := range []Message{
		RequestNodes{}, DiscoveryAnswer{}, StartUpdate{}, Query{}, Answer{},
		AnswerAck{}, Unsubscribe{}, AddRuleNotice{}, DeleteRuleNotice{}, TopoChanged{}, SetNetwork{},
	} {
		if ck[m.Kind()] {
			t.Errorf("protocol kind %s must not be excluded from quiescence sums", m.Kind())
		}
	}
}

// TestAnswerAckRoundTripPreservesFrontier pins the ack handshake's payload:
// the echoed SubID and per-relation frontier must survive the wire hop intact,
// since the source advances its durable marks from exactly these values.
func TestAnswerAckRoundTripPreservesFrontier(t *testing.T) {
	in := AnswerAck{RuleID: "r7", SubID: 42, Durable: true,
		Base: map[string]uint64{"edge": 9}, Seqs: map[string]uint64{"edge": 1 << 40, "node": 3}}
	data, err := Encode(Envelope{From: "H", To: "S", Msg: in})
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := env.Msg.(AnswerAck)
	if !ok {
		t.Fatalf("decoded to %T", env.Msg)
	}
	if out.RuleID != in.RuleID || out.SubID != in.SubID {
		t.Fatalf("identity lost: %+v", out)
	}
	if len(out.Seqs) != 2 || out.Seqs["edge"] != 1<<40 || out.Seqs["node"] != 3 {
		t.Fatalf("frontier corrupted: %v", out.Seqs)
	}
	if out.Base["edge"] != 9 || !out.Durable {
		t.Fatalf("range base or durability flag lost: %+v", out)
	}
	// An answer without a frontier must decode back to a nil map — the
	// receiver's "no acknowledgment expected" signal.
	data, err = Encode(Envelope{From: "S", To: "H", Msg: Answer{RuleID: "r"}})
	if err != nil {
		t.Fatal(err)
	}
	env, err = Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if a := env.Msg.(Answer); a.Seqs != nil {
		t.Fatalf("empty frontier became %v", a.Seqs)
	}
}
