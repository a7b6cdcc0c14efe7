package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// Record encoding. Every segment and snapshot is a stream of framed records:
//
//	[4B little-endian payload length][4B little-endian CRC-32 (IEEE) of payload][payload]
//
// The payload starts with a one-byte record kind. A torn write — a crash mid
// frame — surfaces as a short read or a CRC mismatch, which recovery treats
// as the end of the durable prefix; the frame carries no pointers, so a valid
// prefix is always replayable on its own.

// Record kinds.
const (
	recSchema    byte = 1 // relation declaration: name, attributes
	recInsert    byte = 2 // one committed tuple: relation, seq, values
	recState     byte = 3 // protocol state: epoch, subscriptions, part results
	recSnapHead  byte = 4 // snapshot header: the segment index it covers up to
	recRelation  byte = 5 // snapshot bulk: relation name + tuples in log order
	recSnapEnd   byte = 6 // snapshot completeness marker
	recSubMarks  byte = 7 // subscriptions with their acked frontiers (marks only, no parts)
	recPartDelta byte = 8 // newly received part tuples of one rule part
	recSyncPoint byte = 9 // group-commit marker: everything before it reached stable storage
)

const (
	frameOverhead = 8
	// maxRecordBytes bounds a single record; longer length prefixes are read
	// as corruption, so a torn length field cannot trigger a giant allocation.
	maxRecordBytes = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// writeFrame appends one framed record to w.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [frameOverhead]byte
	if _, err := w.Write(frameHeader(&hdr, payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameHeader fills hdr with payload's frame header and returns it.
func frameHeader(hdr *[frameOverhead]byte, payload []byte) []byte {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return hdr[:]
}

// readFrame reads one framed record. A clean EOF at a frame boundary returns
// io.EOF; a short frame, an implausible length, or a CRC mismatch returns
// errTornRecord — the durable prefix ends here.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTornRecord
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxRecordBytes {
		return nil, errTornRecord
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTornRecord
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errTornRecord
	}
	return payload, nil
}

var errTornRecord = fmt.Errorf("wal: torn or corrupt record")

// ---------------------------------------------------------------------------
// Record payloads. Strings, values and tuples use the one byte codec of
// package relalg (shared with the wire frame); decoders read field by field
// from a sticky-error relalg.Reader and the caller checks Err once.

func encodeSchema(s relalg.Schema) []byte {
	b := relalg.AppendString([]byte{recSchema}, s.Name)
	return relalg.AppendStrings(b, s.Attrs)
}

func decodeSchema(r *relalg.Reader) relalg.Schema {
	return relalg.Schema{Name: r.Str(), Attrs: r.Strs()}
}

// appendInsertRecord appends the insert record of one committed tuple to b.
func appendInsertRecord(b []byte, rel string, seq uint64, t relalg.Tuple) []byte {
	b = append(b, recInsert)
	b = relalg.AppendString(b, rel)
	b = binary.AppendUvarint(b, seq)
	return relalg.AppendTuple(b, t)
}

func decodeInsert(r *relalg.Reader) (rel string, seq uint64, t relalg.Tuple) {
	return r.Str(), r.Uvarint(), r.Tuple()
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendSubState encodes one subscription's durable form (shared by the full
// state record and the marks-only record).
func appendSubState(b []byte, sub SubState) []byte {
	b = relalg.AppendString(b, sub.Dependent)
	b = relalg.AppendString(b, sub.RuleID)
	b = binary.AppendUvarint(b, sub.Epoch)
	b = relalg.AppendString(b, sub.Conj)
	b = relalg.AppendStrings(b, sub.Cols)
	rels := make([]string, 0, len(sub.Marks))
	for rel := range sub.Marks {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	b = binary.AppendUvarint(b, uint64(len(rels)))
	for _, rel := range rels {
		b = relalg.AppendString(b, rel)
		b = binary.AppendUvarint(b, sub.Marks[rel])
	}
	return appendBool(b, sub.Primed)
}

func readSubState(r *relalg.Reader) SubState {
	sub := SubState{Dependent: r.Str(), RuleID: r.Str(), Epoch: r.Uvarint(), Conj: r.Str(), Cols: r.Strs()}
	nmarks := r.Count(2)
	sub.Marks = make(storage.Marks, nmarks)
	for j := 0; j < nmarks; j++ {
		rel := r.Str()
		sub.Marks[rel] = r.Uvarint()
	}
	sub.Primed = r.Byte() == 1
	return sub
}

func appendSubStates(b []byte, subs []SubState) []byte {
	b = binary.AppendUvarint(b, uint64(len(subs)))
	for _, sub := range subs {
		b = appendSubState(b, sub)
	}
	return b
}

func readSubStates(r *relalg.Reader) []SubState {
	n := r.Count(7) // six fields and the primed byte, a byte each at least
	var subs []SubState
	for i := 0; i < n; i++ {
		subs = append(subs, readSubState(r))
	}
	return subs
}

// encodeSubMarks is the marks-only frontier record: the full subscription set
// with acked marks, appended whenever an acknowledgment advances a frontier.
// It deliberately omits part results — those are persisted incrementally by
// recPartDelta records — so the per-ack append stays small.
func encodeSubMarks(subs []SubState) []byte {
	return appendSubStates([]byte{recSubMarks}, subs)
}

// encodeSyncPoint is the group-commit marker: it records the append sequence
// it covers and is itself fsynced before the writer proceeds, so every record
// at or below that sequence is known durable wherever the marker survives a
// crash. Recovery needs nothing from it; logs that hold it must still replay.
func encodeSyncPoint(covered uint64) []byte {
	return binary.AppendUvarint([]byte{recSyncPoint}, covered)
}

func appendPartState(b []byte, p PartState) []byte {
	b = relalg.AppendString(b, p.RuleID)
	b = relalg.AppendString(b, p.Part)
	b = relalg.AppendStrings(b, p.Cols)
	return relalg.AppendTuples(b, p.Tuples)
}

func readPartState(r *relalg.Reader) PartState {
	return PartState{RuleID: r.Str(), Part: r.Str(), Cols: r.Strs(), Tuples: r.Tuples()}
}

// encodePartDelta records the tuples newly merged into one rule part's
// accumulated result set, so crash recovery can rebuild the parts a node
// acknowledged without a full re-answer from its sources.
func encodePartDelta(p PartState) []byte {
	return appendPartState([]byte{recPartDelta}, p)
}

func encodeState(st State, clean bool) []byte {
	b := appendBool([]byte{recState}, clean)
	b = binary.AppendUvarint(b, st.Epoch)
	b = appendSubStates(b, st.Subs)
	b = binary.AppendUvarint(b, uint64(len(st.Parts)))
	for _, part := range st.Parts {
		b = appendPartState(b, part)
	}
	return b
}

func decodeState(r *relalg.Reader) (st State, clean bool) {
	clean = r.Byte() == 1
	st.Epoch = r.Uvarint()
	st.Subs = readSubStates(r)
	for i, n := 0, r.Count(4); i < n; i++ {
		st.Parts = append(st.Parts, readPartState(r))
	}
	return st, clean
}

// MarshalState encodes protocol state in the state record's format, for
// callers that ship it rather than log it (the replica stream).
func MarshalState(st State) []byte { return encodeState(st, false)[1:] }

// UnmarshalState decodes MarshalState's output.
func UnmarshalState(data []byte) (State, error) {
	r := relalg.NewReader(data)
	st, _ := decodeState(&r)
	return st, r.Err()
}
