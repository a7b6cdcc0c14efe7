package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// Recovery. A store directory is rebuilt in two steps: load the newest
// complete snapshot (falling back to older ones when the newest is
// unreadable), then replay the log segments at or above the snapshot's
// coverage boundary in index order. Replay applies each segment's valid
// record prefix: a torn or corrupt frame ends that segment (the crashed
// generation's tail) but not the recovery — every later segment was written
// by a generation that had itself recovered exactly that prefix, so its
// records continue consistently from it. Insert records are idempotent by
// sequence number: seq <= current is a duplicate of snapshot or earlier
// replay and is skipped; a gap (seq > current+1) can only mean corruption
// and stops the replay at the last consistent prefix.

// recoverDir rebuilds the Recovered state of a store directory.
func recoverDir(dir string) (*Recovered, dirScan, error) {
	scan, err := scanDir(dir)
	if err != nil {
		return nil, dirScan{}, err
	}
	rec := &Recovered{DB: storage.New()}
	// A directory with no history at all is vacuously clean: there is
	// nothing whose durability could be in doubt.
	rec.Clean = len(scan.segs) == 0 && len(scan.snaps) == 0
	var coversBelow uint64
	for i := len(scan.snaps) - 1; i >= 0; i-- {
		counter := scan.snaps[i]
		db, st, cb, err := loadSnapshot(snapshotPath(dir, counter))
		if err != nil {
			continue // torn or corrupt snapshot: fall back to an older one
		}
		rec.DB, rec.State, coversBelow = db, st, cb
		rec.SnapshotCounter = counter
		break
	}
	for _, idx := range scan.segs {
		if idx < coversBelow {
			continue // fully compacted into the snapshot
		}
		n, lastClean, err := replaySegment(segmentPath(dir, idx), rec)
		if err != nil {
			return nil, dirScan{}, err
		}
		if n > 0 {
			rec.Segments++
			rec.Records += n
			rec.Clean = lastClean
		}
	}
	return rec, scan, nil
}

// replaySegment applies one segment's valid record prefix to rec. It returns
// the number of records applied and whether the last of them was a
// clean-close state record.
func replaySegment(path string, rec *Recovered) (int, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil // pruned between scan and replay
		}
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != segMagic {
		return 0, false, nil // torn before the header: an empty generation
	}
	var run insertRun
	applied, lastClean := 0, false
	// commit applies the pending run and reports whether replay goes on.
	commit := func() bool {
		n, ok := run.commit(rec.DB)
		if n > 0 {
			applied, lastClean = applied+n, false
		}
		return ok
	}
	for {
		payload, ferr := readFrame(br)
		if ferr != nil {
			commit()
			return applied, lastClean, nil // io.EOF or torn tail: prefix ends
		}
		if payload[0] == recInsert {
			r := relalg.NewReader(payload[1:])
			rel, seq, t := decodeInsert(&r)
			if r.Err() == nil && run.joins(rel, seq) {
				run.ts = append(run.ts, t)
				continue
			}
			if !commit() {
				return applied, lastClean, nil
			}
			if r.Err() != nil {
				return applied, lastClean, nil // CRC-valid yet undecodable: the tail
			}
			cur := rec.DB.Rel(rel)
			switch {
			case cur == nil:
				return applied, lastClean, nil // insert before its schema: inconsistent
			case seq <= cur.Seq():
				applied, lastClean = applied+1, false // already covered by the snapshot
			case seq == cur.Seq()+1:
				run.rel, run.first, run.ts = rel, seq, append(run.ts[:0], t)
			default:
				return applied, lastClean, nil // sequence gap: stop at the prefix
			}
			continue
		}
		if !commit() {
			return applied, lastClean, nil
		}
		ok, clean, err := applyRecord(payload, rec)
		if err != nil {
			return applied, lastClean, err
		}
		if !ok {
			return applied, lastClean, nil // inconsistent continuation: stop
		}
		applied++
		lastClean = clean
	}
}

// replayBatch bounds the insert records replay holds before it commits them.
const replayBatch = 256

// insertRun is a run of insert records of one relation with contiguous seqs,
// the first of them the relation's next: replay commits it with one
// InsertAll, and stops exactly where applying its records one at a time
// would have stopped.
type insertRun struct {
	rel   string
	first uint64 // the seq of ts[0]
	ts    []relalg.Tuple
}

// joins reports whether the insert record (rel, seq) continues the run.
func (run *insertRun) joins(rel string, seq uint64) bool {
	n := len(run.ts)
	return n > 0 && n < replayBatch && rel == run.rel && seq == run.first+uint64(n)
}

// commit inserts the run into db and empties it. It returns how many of its
// records count as applied and whether replay goes on. A tuple of the wrong
// arity is an inconsistent record: replay stops before it. A tuple already
// present is a record that applies as a no-op without moving the seq, so
// the run's next record would be a gap: replay stops after it.
func (run *insertRun) commit(db *storage.DB) (int, bool) {
	n := len(run.ts)
	if n == 0 {
		return 0, true
	}
	added, err := db.InsertAll(run.rel, run.ts, storage.InsertFresh)
	run.ts = run.ts[:0]
	switch {
	case err != nil:
		return added, false
	case added < n:
		return added + 1, added+1 == n
	}
	return n, true
}

// applyRecord folds one decoded record other than an insert (replaySegment
// commits those in runs) into rec. ok=false stops the replay without error
// (the record is internally valid but inconsistent with the recovered
// prefix).
func applyRecord(payload []byte, rec *Recovered) (ok, clean bool, err error) {
	// Throughout: a record that is CRC-valid yet undecodable is treated as
	// the tail.
	r := relalg.NewReader(payload[1:])
	switch payload[0] {
	case recSchema:
		sch := decodeSchema(&r)
		if r.Err() != nil || rec.DB.AddSchema(sch) != nil {
			return false, false, nil // undecodable, or a conflicting redeclaration
		}
		return true, false, nil
	case recState:
		st, cl := decodeState(&r)
		if r.Err() != nil {
			return false, false, nil
		}
		rec.State = st
		rec.partIdx, rec.partSeen = nil, nil // parts replaced wholesale
		return true, cl, nil
	case recSubMarks:
		subs := readSubStates(&r)
		if r.Err() != nil {
			return false, false, nil
		}
		// The newest frontier record wins. A marks record written before a
		// later checkpoint replays after the snapshot state and understates
		// the frontier — which only ever re-sends more, never less.
		rec.State.Subs = subs
		return true, false, nil
	case recPartDelta:
		pd := readPartState(&r)
		if r.Err() != nil {
			return false, false, nil
		}
		rec.mergePart(pd)
		return true, false, nil
	case recSyncPoint:
		// Group-commit marker: everything before it was durable when it was
		// written. Recovery needs no action — surviving the crash is the
		// proof — but the kind must be recognised or replay would stop here.
		r.Uvarint()
		return r.Err() == nil, false, nil
	default:
		return false, false, nil // unknown kind: written by a future version
	}
}

// String summarises a recovered store for diagnostics (cmd/p2pdb recover).
func (r *Recovered) String() string {
	clean := "unclean (marks = last acked frontier)"
	if r.Clean {
		clean = "clean"
	}
	return fmt.Sprintf("epoch %d, %d subscriptions, %d part results, %s; replayed %d records from %d segments (snapshot #%d)",
		r.State.Epoch, len(r.State.Subs), len(r.State.Parts), clean, r.Records, r.Segments, r.SnapshotCounter)
}
