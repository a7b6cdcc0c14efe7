package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// Checkpointing. A snapshot is the compacted form of every sealed segment:
// the full database contents cut at the per-relation sequence high-water
// marks current when the checkpoint started, plus the protocol state (epoch,
// subscriptions, part results). Because log records are written only after
// their tuple is committed to the database, a snapshot taken at time T
// necessarily covers every record in segments sealed before T — which is the
// invariant that makes deleting those segments safe. Records the snapshot
// happens to duplicate from the still-active segment are skipped on replay
// by their sequence numbers.

// Checkpoint writes a snapshot of the attached database and protocol state,
// then prunes the sealed segments and older snapshots it supersedes. It is
// the store shell's tick, which every segment roll kicks, and may be invoked
// directly (tests, tooling).
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	if s.closed || s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	db := s.db
	coversBelow := s.segIdx // the active segment is not covered
	s.mu.Unlock()
	if db == nil {
		return nil // nothing attached yet: nothing worth compacting
	}
	// Snapshot clones the relations under the database lock: a consistent
	// cut, taken after the coverage boundary, so it necessarily contains
	// every tuple whose record sits in a sealed segment (records are
	// appended after commit, and the sealed segments synchronise through
	// s.mu). Reading the live logs directly would race concurrent inserts.
	rels := db.Snapshot()
	schemas := db.Schemas()
	st := s.captureState()
	counter := s.snapCounter.Add(1)
	if err := writeSnapshot(s.dir, counter, coversBelow, schemas, rels, st); err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return err
	}
	s.prune(coversBelow, counter)
	return nil
}

// prune removes segments below the snapshot's coverage boundary and
// snapshots older than the one just written. Failures are ignored: stale
// files cost disk, never correctness (replay is idempotent by sequence
// number).
func (s *Store) prune(coversBelow, keepSnap uint64) {
	scan, err := scanDir(s.dir)
	if err != nil {
		return
	}
	for _, idx := range scan.segs {
		if idx < coversBelow {
			_ = os.Remove(segmentPath(s.dir, idx))
		}
	}
	for _, c := range scan.snaps {
		if c < keepSnap {
			_ = os.Remove(snapshotPath(s.dir, c))
		}
	}
}

// writeSnapshot renders one snapshot file atomically (tmp + rename + dir
// fsync). Layout: magic, snap-header record (coverage boundary), a schema
// record per relation in declaration order, a bulk relation record per
// non-empty relation (tuples in insertion order, so replayed sequence numbers
// are reproduced exactly), the protocol state, and an end marker whose presence
// distinguishes a complete snapshot from a torn one. rels is a private
// clone (storage.DB.Snapshot); a schema with no entry was declared after
// the cut and its tuples live in the still-active segment.
func writeSnapshot(dir string, counter, coversBelow uint64, schemas []relalg.Schema, rels map[string]*relalg.Relation, st State) error {
	tmp := snapshotPath(dir, counter) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	discard := func(err error) error {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.WriteString(snapMagic); err != nil {
		return discard(err)
	}
	head := binary.AppendUvarint([]byte{recSnapHead}, coversBelow)
	if err := writeFrame(w, head); err != nil {
		return discard(err)
	}
	for _, sch := range schemas {
		if err := writeFrame(w, encodeSchema(sch)); err != nil {
			return discard(err)
		}
	}
	for _, sch := range schemas {
		rel := rels[sch.Name]
		if rel == nil || rel.Len() == 0 {
			continue
		}
		payload := relalg.AppendString([]byte{recRelation}, sch.Name)
		payload = binary.AppendUvarint(payload, uint64(rel.Len())) // relalg.AppendTuples, by position
		for i := range rel.Len() {
			payload = relalg.AppendTuple(payload, rel.At(i))
		}
		if err := writeFrame(w, payload); err != nil {
			return discard(err)
		}
	}
	if err := writeFrame(w, encodeState(st, false)); err != nil {
		return discard(err)
	}
	if err := writeFrame(w, []byte{recSnapEnd}); err != nil {
		return discard(err)
	}
	if err := w.Flush(); err != nil {
		return discard(err)
	}
	if err := f.Sync(); err != nil {
		return discard(err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, snapshotPath(dir, counter)); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// loadSnapshot reads one snapshot into a fresh database. Any framing error,
// decode error or missing end marker invalidates the whole file (the caller
// falls back to an older snapshot): snapshots are atomic, unlike segments,
// which are valid up to their torn tail.
func loadSnapshot(path string) (db *storage.DB, st State, coversBelow uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, State{}, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != snapMagic {
		return nil, State{}, 0, fmt.Errorf("wal: %s: bad snapshot magic", path)
	}
	db = storage.New()
	sawEnd, sawHead := false, false
	for {
		payload, ferr := readFrame(br)
		if ferr == io.EOF {
			break
		}
		if ferr != nil {
			return nil, State{}, 0, ferr
		}
		r := relalg.NewReader(payload[1:])
		switch payload[0] {
		case recSnapHead:
			coversBelow = r.Uvarint()
			sawHead = true
		case recSchema:
			if sch := decodeSchema(&r); r.Err() == nil {
				err = db.AddSchema(sch)
			}
		case recRelation:
			if name, tuples := r.Str(), r.Tuples(); r.Err() == nil {
				_, err = db.InsertAll(name, tuples, storage.InsertExact)
			}
		case recState:
			st, _ = decodeState(&r)
		case recSnapEnd:
			sawEnd = true
		default:
			return nil, State{}, 0, fmt.Errorf("wal: %s: unknown snapshot record kind %d", path, payload[0])
		}
		if err == nil {
			err = r.Err()
		}
		if err != nil {
			return nil, State{}, 0, err
		}
	}
	if !sawHead || !sawEnd {
		return nil, State{}, 0, fmt.Errorf("wal: %s: incomplete snapshot", path)
	}
	return db, st, coversBelow, nil
}
