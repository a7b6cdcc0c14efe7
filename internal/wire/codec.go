package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"time"

	"repro/internal/relalg"
	"repro/internal/stats"
)

// Encoding (TCP transport). A frame is
//
//	version  1 byte (formatVersion)
//	From, To strings
//	kind     1 byte (the kind table below)
//	fields   the message struct's fields, in declaration order
//
// Fields are uvarints (unsigned), zig-zag varints (int, durations), one byte
// (bool, uint8), length-prefixed strings and byte strings, counted lists,
// maps as counted pairs sorted by key, and values and tuples in the byte
// encoding package relalg shares with the WAL record. The codec is stateless
// — a frame decodes on its own, whatever was dropped or re-dialled before it
// — and carries no type descriptions; a peer speaking another version is told
// apart by the first byte and its frames are rejected (and counted by the
// transport), never guessed at. Empty lists and maps decode as nil.

// formatVersion is the first byte of every frame. Bump it on any change to
// the bytes of an existing kind.
const formatVersion = 2

// kind is a frame's discriminator byte; the constants are the kind table, the
// protocol's whole vocabulary. Their values are the format: append new kinds,
// never renumber. The wireexhaustive analyzer holds every kind to an encode
// arm (encoder.message), a decode arm (reader.message), a dispatch site and
// a fuzz seed.
type kind byte

const (
	kRequestNodes kind = iota + 1
	kDiscoveryAnswer
	kStartUpdate
	kQuery
	kAnswer
	kAnswerAck
	kAnswerBatch
	kUnsubscribe
	kAddRuleNotice
	kDeleteRuleNotice
	kTopoChanged
	kSetNetwork
	kStatsRequest
	kStatsReport
	kStatsReset
	kJoin
	kJoinAck
	kHeartbeat
	kGoodbye
	kPrepare
	kPromise
	kAccept
	kAccepted
	kLearn
	kCatchUp
	kSnapshot
	kDiscoverRequest
	kUpdateRequest
	kProbeRequest
	kStateRequest
	kStateReport
	kQueryRequest
	kQueryResult
	kReplicaAppend
	kReplicaAck
	kReplicaSyncReq
	kReplicaState
	kReplicaStatusRequest
	kReplicaStatusReport
	kWatchRequest
	kWatchDelta
	kWatchCancel
)

// Decode errors. Anything else Decode returns wraps relalg.ErrCorrupt.
var (
	// ErrVersion rejects a frame written in another format version.
	ErrVersion = errors.New("wire: unknown format version")
	// ErrKind rejects a frame (or a message handed to Encode) whose kind is
	// not in the kind table.
	ErrKind = errors.New("wire: unknown frame kind")
)

// scratch lends EncodeFrame a grown buffer to encode into, so the slice it
// returns is allocated once, at its final size.
var scratch = sync.Pool{New: func() any { return new(encoder) }}

// Encode serialises an envelope.
func Encode(env Envelope) ([]byte, error) { return EncodeFrame(0, env) }

// EncodeFrame is Encode with room bytes left free in front of the encoding,
// for a transport's own frame header: the envelope is encoded straight
// behind it and the result is the caller's to keep.
func EncodeFrame(room int, env Envelope) ([]byte, error) {
	e := scratch.Get().(*encoder)
	e.b = append(e.b[:0], make([]byte, room)...)
	err := e.byte(formatVersion).str(env.From).str(env.To).message(env.Msg)
	out := e.b
	if cap(out) <= 64<<10 { // a larger frame keeps its buffer instead: the pool pins little
		out = bytes.Clone(out)
		scratch.Put(e)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Size returns the length of msg's encoding: the bytes Encode writes for it
// behind the envelope header (version byte, From, To). It runs Encode's arms
// in counting mode, so it cannot disagree with the frame, and allocates
// nothing. A message outside the kind table counts 0.
func Size(msg Message) int {
	e := scratch.Get().(*encoder)
	e.count, e.n = true, 0
	if e.message(msg) != nil {
		e.n = 0
	}
	n := e.n
	e.count = false
	scratch.Put(e)
	return n
}

// Decode deserialises an envelope produced by Encode. The result shares no
// memory with data.
func Decode(data []byte) (Envelope, error) {
	if len(data) == 0 || data[0] != formatVersion {
		return Envelope{}, fmt.Errorf("%w (frame of %d bytes)", ErrVersion, len(data))
	}
	r := reader{relalg.NewReader(data[1:])}
	env := Envelope{From: r.Str(), To: r.Str()}
	env.Msg = r.message(kind(r.Byte()))
	if r.Err() == nil && r.Len() != 0 {
		r.Fail(relalg.ErrCorrupt) // trailing bytes: not a frame this codec wrote
	}
	if err := r.Err(); err != nil {
		return Envelope{}, fmt.Errorf("wire: decode: %w", err)
	}
	return env, nil
}

// ---------------------------------------------------------------------------
// Encode arms

// encoder appends fields to a frame; its methods chain, so an arm reads as
// the struct's field list. A counting encoder (Size) adds each field's length
// to n instead, so a frame's layout is written once, in the arms below.
type encoder struct {
	b     []byte
	count bool
	n     int
}

func (e *encoder) kind(k kind) *encoder { return e.byte(byte(k)) }
func (e *encoder) int(v int64) *encoder { return e.uint(uint64(v<<1) ^ uint64(v>>63)) } // zig-zag

func (e *encoder) byte(v byte) *encoder {
	if e.count {
		e.n++
		return e
	}
	e.b = append(e.b, v)
	return e
}

func (e *encoder) uint(v uint64) *encoder {
	if e.count {
		e.n += relalg.UvarintSize(v)
		return e
	}
	e.b = binary.AppendUvarint(e.b, v)
	return e
}

func (e *encoder) str(s string) *encoder {
	if e.count {
		e.n += relalg.StringSize(s)
		return e
	}
	e.b = relalg.AppendString(e.b, s)
	return e
}

func (e *encoder) strs(ss []string) *encoder {
	e.uint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
	return e
}

func (e *encoder) bytes(v []byte) *encoder {
	if e.count {
		e.n += relalg.UvarintSize(uint64(len(v))) + len(v)
		return e
	}
	e.b = append(e.uint(uint64(len(v))).b, v...)
	return e
}

func (e *encoder) tuples(ts []relalg.Tuple) *encoder {
	if e.count {
		e.n += relalg.TuplesSize(ts)
		return e
	}
	e.b = relalg.AppendTuples(e.b, ts)
	return e
}

func (e *encoder) bool(v bool) *encoder {
	if v {
		return e.byte(1)
	}
	return e.byte(0)
}

// encodeMap writes a string-keyed map as counted pairs sorted by key, so
// equal maps encode to equal bytes; the keys sort in stack memory when few.
// A count skips the sort: the length does not depend on the order.
func encodeMap[V any](e *encoder, m map[string]V, val func(*encoder, V) *encoder) *encoder {
	e.uint(uint64(len(m)))
	if e.count {
		for k, v := range m {
			val(e.str(k), v)
		}
		return e
	}
	var buf [8]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		val(e.str(k), m[k])
	}
	return e
}

// marks writes a per-relation frontier (or any string-keyed counter map).
func (e *encoder) marks(m map[string]uint64) *encoder  { return encodeMap(e, m, (*encoder).uint) }
func (e *encoder) strMap(m map[string]string) *encoder { return encodeMap(e, m, (*encoder).str) }

// encodeList writes a counted list of structs.
func encodeList[T any](e *encoder, xs []T, elem func(*encoder, T)) *encoder {
	e.uint(uint64(len(xs)))
	for _, x := range xs {
		elem(e, x)
	}
	return e
}

func (e *encoder) message(msg Message) error {
	switch m := msg.(type) {
	case RequestNodes:
		e.kind(kRequestNodes).str(m.Wave)
	case DiscoveryAnswer:
		encodeList(e.kind(kDiscoveryAnswer).str(m.Wave), m.Knowledge, (*encoder).nodeEdges).bool(m.Finished)
	case StartUpdate:
		e.kind(kStartUpdate).uint(m.Epoch).str(m.Origin)
	case Query:
		e.kind(kQuery).uint(m.Epoch).str(m.RuleID).str(m.Conj).strs(m.Cols).strs(m.Path).
			bool(m.Scoped).uint(m.Incarnation)
	case Answer:
		e.kind(kAnswer).answer(m)
	case AnswerAck:
		e.kind(kAnswerAck).answerAck(m)
	case AnswerBatch:
		e.kind(kAnswerBatch)
		encodeList(e, m.Answers, (*encoder).answer)
		encodeList(e, m.Acks, (*encoder).answerAck)
		encodeList(e, m.Beats, (*encoder).heartbeat)
		encodeList(e, m.RepAppends, (*encoder).replicaAppend)
		encodeList(e, m.RepAcks, (*encoder).replicaAck)
		encodeList(e, m.WatchDeltas, (*encoder).watchDelta)
	case Unsubscribe:
		e.kind(kUnsubscribe).str(m.RuleID)
	case AddRuleNotice:
		e.kind(kAddRuleNotice).str(m.RuleText)
	case DeleteRuleNotice:
		e.kind(kDeleteRuleNotice).str(m.RuleID)
	case TopoChanged:
		e.kind(kTopoChanged).str(m.ChangeID)
	case SetNetwork:
		e.kind(kSetNetwork).str(m.Text)
	case StatsRequest:
		e.kind(kStatsRequest).uint(m.Seq)
	case StatsReport:
		s := m.Snapshot
		e.kind(kStatsReport).str(s.Node).marks(s.MsgsSent).marks(s.MsgsReceived).
			uint(s.BytesSent).uint(s.BytesRecv).uint(s.QueriesExecuted).uint(s.UpdatesApplied).
			uint(s.TuplesInserted).uint(s.TuplesDuplicate).uint(s.DuplicateQueries).uint(s.Truncated).
			uint(s.SendErrors).int(int64(s.DiscoveryClosed)).int(int64(s.UpdateClosed)).uint(m.Seq)
	case StatsReset:
		e.kind(kStatsReset)
	case Join:
		e.kind(kJoin).str(m.Node).str(m.Addr).strMap(m.Members)
	case JoinAck:
		e.kind(kJoinAck).strMap(m.Members)
	case Heartbeat:
		e.kind(kHeartbeat).heartbeat(m)
	case Goodbye:
		e.kind(kGoodbye).str(m.Node)
	case Prepare:
		e.kind(kPrepare).uint(m.Instance).uint(m.Ballot).uint(m.Done)
	case Promise:
		e.kind(kPromise).uint(m.Instance).uint(m.Ballot).bool(m.OK).uint(m.Promised).uint(m.AccBallot).
			bool(m.HasVal).command(m.Val).uint(m.Done)
	case Accept:
		e.kind(kAccept).uint(m.Instance).uint(m.Ballot).command(m.Val).uint(m.Done)
	case Accepted:
		e.kind(kAccepted).uint(m.Instance).uint(m.Ballot).bool(m.OK).uint(m.Promised).uint(m.Done)
	case Learn:
		e.kind(kLearn).uint(m.Instance).command(m.Val).uint(m.Done)
	case CatchUp:
		e.kind(kCatchUp).uint(m.From).uint(m.Done)
	case Snapshot:
		e.kind(kSnapshot).uint(m.Through).bytes(m.State).uint(m.Done)
	case DiscoverRequest:
		e.kind(kDiscoverRequest)
	case UpdateRequest:
		e.kind(kUpdateRequest)
	case ProbeRequest:
		e.kind(kProbeRequest)
	case StateRequest:
		e.kind(kStateRequest)
	case StateReport:
		e.kind(kStateReport).str(m.Node).uint(m.Epoch).bool(m.Activated).bool(m.Closed).bool(m.PathsReady).
			uint(m.Waves).int(int64(m.Tuples)).int(int64(m.Watchers)).int(int64(m.WatchQueued)).uint(m.WatchExtracted).
			uint(m.WatchSaved).uint(m.WatchDropped).uint(m.WatchCanceled).uint(m.BadFrames)
	case QueryRequest:
		e.kind(kQueryRequest).uint(m.ID).str(m.Body).strs(m.Cols)
	case QueryResult:
		e.kind(kQueryResult).uint(m.ID).strs(m.Columns).tuples(m.Tuples).str(m.Err)
	case ReplicaAppend:
		e.kind(kReplicaAppend).replicaAppend(m)
	case ReplicaAck:
		e.kind(kReplicaAck).replicaAck(m)
	case ReplicaSyncReq:
		e.kind(kReplicaSyncReq).str(m.Node).marks(m.Frontier)
	case ReplicaState:
		e.kind(kReplicaState).str(m.Node).uint(m.Epoch).bytes(m.State)
	case ReplicaStatusRequest:
		e.kind(kReplicaStatusRequest)
	case ReplicaStatusReport:
		e.kind(kReplicaStatusReport).str(m.Member).int(int64(m.K)).int(int64(m.UnderReplicated))
		encodeList(e, m.Entries, (*encoder).replicaStatus)
	case WatchRequest:
		e.kind(kWatchRequest).uint(m.ID).str(m.Body).strs(m.Cols).str(m.Policy).int(int64(m.QueueCap)).
			bool(m.Resume).marks(m.Marks)
	case WatchDelta:
		e.kind(kWatchDelta).watchDelta(m)
	case WatchCancel:
		e.kind(kWatchCancel).uint(m.ID)
	default:
		return fmt.Errorf("%w: cannot encode %v", ErrKind, reflect.TypeOf(msg))
	}
	return nil
}

func (e *encoder) nodeEdges(ne NodeEdges) { e.str(ne.Node).uint(ne.Version).strs(ne.Targets) }

func (e *encoder) answer(m Answer) {
	e.uint(m.Epoch).str(m.RuleID).str(m.Part).strs(m.Columns).tuples(m.Tuples).bool(m.Complete).bool(m.Delta).
		strs(m.Route).uint(m.SubID).marks(m.Base).marks(m.Seqs)
}

func (e *encoder) answerAck(m AnswerAck) {
	e.str(m.RuleID).uint(m.SubID).marks(m.Base).marks(m.Seqs).bool(m.Durable)
}

func (e *encoder) heartbeat(m Heartbeat) { e.str(m.Node).str(m.Addr) }

func (e *encoder) command(c Command) *encoder {
	return e.str(c.Kind).str(c.Origin).uint(c.Seq).str(c.Node).str(c.Addr).byte(c.Status).str(c.Text).uint(c.Ref)
}

func (e *encoder) replicaAppend(m ReplicaAppend) {
	e.str(m.Node).str(m.Rel).strs(m.Attrs).uint(m.Base).uint(m.To).tuples(m.Tuples)
}

func (e *encoder) replicaAck(m ReplicaAck) { e.str(m.Node).str(m.Rel).uint(m.To).bool(m.Durable) }

func (e *encoder) replicaStatus(s ReplicaStatus) {
	e.str(s.Node).str(s.Role).str(s.Peer).uint(s.Applied).uint(s.Target)
}

func (e *encoder) watchDelta(m WatchDelta) {
	e.uint(m.ID).uint(m.Seq).bool(m.Prime).tuples(m.Tuples).marks(m.Marks).bool(m.Closed).str(m.Err)
}

// ---------------------------------------------------------------------------
// Decode arms

// reader adds the wire-only field shapes to the shared value/tuple reader.
type reader struct{ relalg.Reader }

// message decodes the fields of the message k names. Composite literals
// evaluate their reads in source order, which is the struct's field order.
func (r *reader) message(k kind) Message {
	switch k {
	case kRequestNodes:
		return RequestNodes{Wave: r.Str()}
	case kDiscoveryAnswer:
		return DiscoveryAnswer{Wave: r.Str(), Knowledge: list(r, 3, (*reader).nodeEdges), Finished: r.bool()}
	case kStartUpdate:
		return StartUpdate{Epoch: r.Uvarint(), Origin: r.Str()}
	case kQuery:
		return Query{Epoch: r.Uvarint(), RuleID: r.Str(), Conj: r.Str(), Cols: r.Strs(), Path: r.Strs(),
			Scoped: r.bool(), Incarnation: r.Uvarint()}
	case kAnswer:
		return r.answer()
	case kAnswerAck:
		return r.answerAck()
	case kAnswerBatch:
		return AnswerBatch{
			Answers:     list(r, 11, (*reader).answer),
			Acks:        list(r, 5, (*reader).answerAck),
			Beats:       list(r, 2, (*reader).heartbeat),
			RepAppends:  list(r, 6, (*reader).replicaAppend),
			RepAcks:     list(r, 4, (*reader).replicaAck),
			WatchDeltas: list(r, 7, (*reader).watchDelta),
		}
	case kUnsubscribe:
		return Unsubscribe{RuleID: r.Str()}
	case kAddRuleNotice:
		return AddRuleNotice{RuleText: r.Str()}
	case kDeleteRuleNotice:
		return DeleteRuleNotice{RuleID: r.Str()}
	case kTopoChanged:
		return TopoChanged{ChangeID: r.Str()}
	case kSetNetwork:
		return SetNetwork{Text: r.Str()}
	case kStatsRequest:
		return StatsRequest{Seq: r.Uvarint()}
	case kStatsReport:
		return StatsReport{Snapshot: stats.Snapshot{
			Node: r.Str(), MsgsSent: r.marks(), MsgsReceived: r.marks(),
			BytesSent: r.Uvarint(), BytesRecv: r.Uvarint(), QueriesExecuted: r.Uvarint(),
			UpdatesApplied: r.Uvarint(), TuplesInserted: r.Uvarint(), TuplesDuplicate: r.Uvarint(),
			DuplicateQueries: r.Uvarint(), Truncated: r.Uvarint(), SendErrors: r.Uvarint(),
			DiscoveryClosed: time.Duration(r.Varint()), UpdateClosed: time.Duration(r.Varint()),
		}, Seq: r.Uvarint()}
	case kStatsReset:
		return StatsReset{}
	case kJoin:
		return Join{Node: r.Str(), Addr: r.Str(), Members: r.strMap()}
	case kJoinAck:
		return JoinAck{Members: r.strMap()}
	case kHeartbeat:
		return r.heartbeat()
	case kGoodbye:
		return Goodbye{Node: r.Str()}
	case kPrepare:
		return Prepare{Instance: r.Uvarint(), Ballot: r.Uvarint(), Done: r.Uvarint()}
	case kPromise:
		return Promise{Instance: r.Uvarint(), Ballot: r.Uvarint(), OK: r.bool(), Promised: r.Uvarint(),
			AccBallot: r.Uvarint(), HasVal: r.bool(), Val: r.command(), Done: r.Uvarint()}
	case kAccept:
		return Accept{Instance: r.Uvarint(), Ballot: r.Uvarint(), Val: r.command(), Done: r.Uvarint()}
	case kAccepted:
		return Accepted{Instance: r.Uvarint(), Ballot: r.Uvarint(), OK: r.bool(), Promised: r.Uvarint(),
			Done: r.Uvarint()}
	case kLearn:
		return Learn{Instance: r.Uvarint(), Val: r.command(), Done: r.Uvarint()}
	case kCatchUp:
		return CatchUp{From: r.Uvarint(), Done: r.Uvarint()}
	case kSnapshot:
		return Snapshot{Through: r.Uvarint(), State: r.Bytes(), Done: r.Uvarint()}
	case kDiscoverRequest:
		return DiscoverRequest{}
	case kUpdateRequest:
		return UpdateRequest{}
	case kProbeRequest:
		return ProbeRequest{}
	case kStateRequest:
		return StateRequest{}
	case kStateReport:
		return StateReport{Node: r.Str(), Epoch: r.Uvarint(), Activated: r.bool(), Closed: r.bool(),
			PathsReady: r.bool(), Waves: r.Uvarint(), Tuples: r.int(), Watchers: r.int(), WatchQueued: r.int(),
			WatchExtracted: r.Uvarint(), WatchSaved: r.Uvarint(), WatchDropped: r.Uvarint(),
			WatchCanceled: r.Uvarint(), BadFrames: r.Uvarint()}
	case kQueryRequest:
		return QueryRequest{ID: r.Uvarint(), Body: r.Str(), Cols: r.Strs()}
	case kQueryResult:
		return QueryResult{ID: r.Uvarint(), Columns: r.Strs(), Tuples: r.Tuples(), Err: r.Str()}
	case kReplicaAppend:
		return r.replicaAppend()
	case kReplicaAck:
		return r.replicaAck()
	case kReplicaSyncReq:
		return ReplicaSyncReq{Node: r.Str(), Frontier: r.marks()}
	case kReplicaState:
		return ReplicaState{Node: r.Str(), Epoch: r.Uvarint(), State: r.Bytes()}
	case kReplicaStatusRequest:
		return ReplicaStatusRequest{}
	case kReplicaStatusReport:
		return ReplicaStatusReport{Member: r.Str(), K: r.int(), UnderReplicated: r.int(),
			Entries: list(r, 5, (*reader).replicaStatus)}
	case kWatchRequest:
		return WatchRequest{ID: r.Uvarint(), Body: r.Str(), Cols: r.Strs(), Policy: r.Str(),
			QueueCap: r.int(), Resume: r.bool(), Marks: r.marks()}
	case kWatchDelta:
		return r.watchDelta()
	case kWatchCancel:
		return WatchCancel{ID: r.Uvarint()}
	}
	if r.Err() == nil {
		r.Fail(fmt.Errorf("%w %d", ErrKind, k))
	}
	return nil
}

func (r *reader) nodeEdges() NodeEdges {
	return NodeEdges{Node: r.Str(), Version: r.Uvarint(), Targets: r.Strs()}
}

func (r *reader) answer() Answer {
	return Answer{Epoch: r.Uvarint(), RuleID: r.Str(), Part: r.Str(), Columns: r.Strs(), Tuples: r.Tuples(),
		Complete: r.bool(), Delta: r.bool(), Route: r.Strs(), SubID: r.Uvarint(), Base: r.marks(), Seqs: r.marks()}
}

func (r *reader) answerAck() AnswerAck {
	return AnswerAck{RuleID: r.Str(), SubID: r.Uvarint(), Base: r.marks(), Seqs: r.marks(), Durable: r.bool()}
}

func (r *reader) heartbeat() Heartbeat { return Heartbeat{Node: r.Str(), Addr: r.Str()} }

func (r *reader) command() Command {
	return Command{Kind: r.Str(), Origin: r.Str(), Seq: r.Uvarint(), Node: r.Str(), Addr: r.Str(),
		Status: r.Byte(), Text: r.Str(), Ref: r.Uvarint()}
}

func (r *reader) replicaAppend() ReplicaAppend {
	return ReplicaAppend{Node: r.Str(), Rel: r.Str(), Attrs: r.Strs(), Base: r.Uvarint(), To: r.Uvarint(),
		Tuples: r.Tuples()}
}

func (r *reader) replicaAck() ReplicaAck {
	return ReplicaAck{Node: r.Str(), Rel: r.Str(), To: r.Uvarint(), Durable: r.bool()}
}

func (r *reader) replicaStatus() ReplicaStatus {
	return ReplicaStatus{Node: r.Str(), Role: r.Str(), Peer: r.Str(), Applied: r.Uvarint(), Target: r.Uvarint()}
}

func (r *reader) watchDelta() WatchDelta {
	return WatchDelta{ID: r.Uvarint(), Seq: r.Uvarint(), Prime: r.bool(), Tuples: r.Tuples(), Marks: r.marks(),
		Closed: r.bool(), Err: r.Str()}
}

// ---------------------------------------------------------------------------
// Decode-side field helpers

func (r *reader) bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(relalg.ErrCorrupt)
	return false
}

func (r *reader) int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail(relalg.ErrCorrupt)
	}
	return int(v)
}

// list reads a counted list of structs whose elements take at least min
// bytes each (a byte per field: every field helper writes one or more),
// which bounds what a hostile count can make it allocate.
func list[T any](r *reader, min int, elem func(*reader) T) []T {
	n := r.Count(min)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem(r)
	}
	return out
}

func decodeMap[V any](r *reader, val func(*reader) V) map[string]V {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	for i := 0; i < n; i++ {
		k := r.Str()
		m[k] = val(r)
	}
	return m
}

func (r *reader) marks() map[string]uint64  { return decodeMap(r, (*reader).Uvarint) }
func (r *reader) strMap() map[string]string { return decodeMap(r, (*reader).Str) }
