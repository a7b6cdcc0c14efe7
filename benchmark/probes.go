package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The replay probes price one layer at a time, outside the run, with the
// run's own data: the frames the tracer captured and the databases the run
// ended with. Unit cost times the run's boundary count, over the run's
// converge time, is the layer's share of the wall clock. A share can exceed
// what one CPU could do in that time: the run spreads the work over two.

// rebatch folds captured messages into the frames a Batcher with this window
// puts on the wire: on the cluster workloads the tracer sits above the
// members' Batchers and sees the messages before they coalesce.
func rebatch(frames []frame, window time.Duration) []wire.Envelope {
	type slot struct {
		from, to string
		bucket   int64
	}
	held := map[slot]*wire.AnswerBatch{}
	var order []slot
	var out []wire.Envelope
	for _, f := range frames {
		if window <= 0 {
			out = append(out, wire.Envelope{From: f.from, To: f.to, Msg: f.msg})
			continue
		}
		k := slot{f.from, f.to, f.at / int64(window)}
		b := held[k]
		if b == nil {
			b = &wire.AnswerBatch{}
			held[k] = b
			order = append(order, k)
		}
		switch m := f.msg.(type) {
		case wire.Answer:
			b.Answers = append(b.Answers, m)
		case wire.AnswerAck:
			b.Acks = append(b.Acks, m)
		case wire.ReplicaAppend:
			b.RepAppends = append(b.RepAppends, m)
		case wire.ReplicaAck:
			b.RepAcks = append(b.RepAcks, m)
		case wire.WatchDelta:
			b.WatchDeltas = append(b.WatchDeltas, m)
		default:
			out = append(out, wire.Envelope{From: f.from, To: f.to, Msg: f.msg})
		}
	}
	for _, k := range order {
		b := held[k]
		var msg wire.Message = *b
		if us := units(msg); len(us) == 1 {
			msg = us[0] // a lone message travels as itself, as the Batcher sends it
		}
		out = append(out, wire.Envelope{From: k.from, To: k.to, Msg: msg})
	}
	return out
}

// codecProbe encodes and decodes every captured frame with the real codec
// and records the cost per data tuple carried. wall is the run's converge
// time in seconds.
func codecProbe(r *recorder, frames []frame, window time.Duration, wall float64) {
	var enc, dec time.Duration
	var bytes, tuples int
	for _, env := range rebatch(frames, window) {
		t0 := time.Now()
		data, err := wire.Encode(env)
		t1 := time.Now()
		if err != nil {
			continue
		}
		if _, err := wire.Decode(data); err != nil {
			continue
		}
		enc += t1.Sub(t0)
		dec += time.Since(t1)
		bytes += len(data)
		tuples += tuplesIn(env.Msg)
	}
	r.add("wire.encode_ns_per_tuple", ratio(float64(enc), float64(tuples)))
	r.add("wire.decode_ns_per_tuple", ratio(float64(dec), float64(tuples)))
	r.add("wire.encoded_bytes_per_tuple", ratio(float64(bytes), float64(tuples)))
	r.add("wire.codec_share", ratio((enc+dec).Seconds(), wall))
}

// fill inserts every tuple of src into fresh databases with the same
// schemas, chunk tuples per InsertAll call, calling after (if set) behind
// every chunk. It returns the databases and the tuple count.
func fill(src map[string]*storage.DB, open func(node string, db *storage.DB) error, chunk int, after func(node string)) (map[string]*storage.DB, int, error) {
	nodes := make([]string, 0, len(src))
	for node := range src {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	out := map[string]*storage.DB{}
	tuples := 0
	for _, node := range nodes {
		db := storage.New(src[node].Schemas()...)
		if open != nil {
			if err := open(node, db); err != nil {
				return nil, 0, err
			}
		}
		out[node] = db
		for _, sch := range src[node].Schemas() {
			all := src[node].Rel(sch.Name).All()
			for off := 0; off < len(all); off += chunk {
				part := all[off:min(off+chunk, len(all))]
				if _, err := db.InsertAll(sch.Name, part, storage.InsertExact); err != nil {
					return nil, 0, err
				}
				tuples += len(part)
				if after != nil {
					after(node)
				}
			}
		}
	}
	return out, tuples, nil
}

// storageProbe prices inserts: fresh tuples and duplicates into a bare
// database, the heap a stored tuple holds, and (walDir set) what an attached
// WAL adds per appended tuple and per group commit. inserted and dups are
// one iteration's boundary counts from the peers' statistics.
func storageProbe(r *recorder, snap map[string]*storage.DB, walDir string, chunk int, inserted, dups, wall float64) error {
	before := heapAlloc()
	t0 := time.Now()
	fresh, tuples, err := fill(snap, nil, chunk, nil)
	if err != nil {
		return err
	}
	freshNS := ratio(float64(time.Since(t0)), float64(tuples))
	r.add("relalg.heap_bytes_per_tuple", ratio(heapAlloc()-before, float64(tuples)))
	t0 = time.Now()
	for node, db := range fresh {
		for _, sch := range db.Schemas() {
			if _, err := db.InsertAll(sch.Name, snap[node].Rel(sch.Name).All(), storage.InsertExact); err != nil {
				return err
			}
		}
	}
	dupNS := ratio(float64(time.Since(t0)), float64(tuples))
	runtime.KeepAlive(fresh)
	r.add("storage.insert_ns_per_tuple", freshNS)
	r.add("storage.dup_insert_ns_per_tuple", dupNS)
	r.add("storage.insert_share", ratio((freshNS*inserted+dupNS*dups)/1e9, wall))
	if walDir == "" {
		return nil
	}

	stores := map[string]*wal.Store{}
	open := func(node string, db *storage.DB) error {
		st, _, err := wal.Open(filepath.Join(walDir, node), wal.Options{Fsync: wal.FsyncInterval})
		if err != nil {
			return err
		}
		st.Attach(db)
		stores[node] = st
		return nil
	}
	var syncs []float64
	var syncTotal time.Duration
	t0 = time.Now()
	_, _, err = fill(snap, open, chunk, func(node string) {
		t := time.Now()
		if err := stores[node].SyncPoint(); err == nil {
			d := time.Since(t)
			syncs = append(syncs, ms(d))
			syncTotal += d
		}
	})
	logged := time.Since(t0) - syncTotal
	for _, st := range stores {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("wal probe: %w", cerr)
		}
	}
	if err != nil {
		return err
	}
	r.add("wal.append_ns_per_tuple", max(0, ratio(float64(logged), float64(tuples))-freshNS))
	r.add("wal.sync_ms_p50", percentile(syncs, 0.50))
	return nil
}

// cqProbe prices semi-naive evaluation: every rule's body part is evaluated
// at its source over the final database, with the source relations fed in as
// deltas of the size the run's answers had.
func cqProbe(r *recorder, def *rules.Network, snap map[string]*storage.DB, chunk int, wall float64) error {
	var spent time.Duration
	tuples := 0
	for _, rule := range def.Rules {
		for _, src := range rule.SourceNodes() {
			part, cols := rule.BodyPart(src)
			db := snap[src]
			if db == nil {
				continue
			}
			done := map[string]bool{}
			for _, atom := range part.Atoms {
				if done[atom.Rel] || db.Rel(atom.Rel) == nil {
					continue
				}
				done[atom.Rel] = true
				all := db.Rel(atom.Rel).All()
				for off := 0; off < len(all); off += chunk {
					delta := map[string][]relalg.Tuple{atom.Rel: all[off:min(off+chunk, len(all))]}
					t0 := time.Now()
					if _, err := cq.EvalDelta(db, part, cols, delta); err != nil {
						return fmt.Errorf("cq probe %s at %s: %w", rule.ID, src, err)
					}
					spent += time.Since(t0)
				}
				tuples += len(all)
			}
		}
	}
	r.add("cq.evaldelta_ns_per_tuple", ratio(float64(spent), float64(tuples)))
	r.add("cq.eval_share", ratio(spent.Seconds(), wall))
	return nil
}

// answerSize is the mean number of tuples in the captured answers that
// carried any, at least 1: the delta size the probes replay with.
func answerSize(frames []frame) int {
	tuples, answers := 0, 0
	for _, f := range frames {
		for _, u := range units(f.msg) {
			if a, ok := u.(wire.Answer); ok && len(a.Tuples) > 0 {
				tuples += len(a.Tuples)
				answers++
			}
		}
	}
	if answers == 0 {
		return 1
	}
	return max(1, tuples/answers)
}

// probes runs the replay probes of a bulk workload over the last traced
// iteration.
func (b *bulk) probes() error {
	r := b.e.rec
	if b.lastSnap == nil {
		return fmt.Errorf("traced run finished without a traced iteration")
	}
	wall := median(r.samples["raw."+convergeName(true)]) / 1e3
	chunk := answerSize(b.frames)
	walDir := ""
	if b.spec.durable {
		// The tracer sits under the Batcher here, so the captured frames are
		// what reached the sockets. Mem never encodes: dblp-mem's codec
		// metrics stay 0.
		codecProbe(r, b.frames, 0, wall)
		walDir = filepath.Join(b.e.cfg.dir, "probe-wal")
	}
	def, err := b.spec.generate(b.e.cfg.seed)
	if err != nil {
		return err
	}
	if err := storageProbe(r, b.lastSnap, walDir, chunk, median(r.samples["n.inserted"]), median(r.samples["n.duplicate"]), wall); err != nil {
		return err
	}
	return cqProbe(r, def, b.lastSnap, chunk, wall)
}
