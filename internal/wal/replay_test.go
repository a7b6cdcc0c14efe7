package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// replayOneAtATime is the replay this package did before insert records were
// committed in runs: every insert record through its own DB.Insert. It is the
// oracle for replaySegment.
func replayOneAtATime(path string, rec *Recovered) (int, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	br := bufio.NewReader(bytes.NewReader(data))
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != segMagic {
		return 0, false, nil
	}
	applied, lastClean := 0, false
	for {
		payload, ferr := readFrame(br)
		if ferr != nil {
			return applied, lastClean, nil
		}
		ok, clean := false, false
		if payload[0] == recInsert {
			r := relalg.NewReader(payload[1:])
			rel, seq, t := decodeInsert(&r)
			cur := rec.DB.Rel(rel)
			switch {
			case r.Err() != nil || cur == nil:
			case seq <= cur.Seq():
				ok = true
			case seq == cur.Seq()+1:
				_, ierr := rec.DB.Insert(rel, t, storage.InsertExact)
				ok = ierr == nil
			}
		} else if ok, clean, err = applyRecord(payload, rec); err != nil {
			return applied, lastClean, err
		}
		if !ok {
			return applied, lastClean, nil
		}
		applied++
		lastClean = clean
	}
}

// segmentOf writes a segment file holding the given record payloads, then
// tail (raw bytes: a torn frame, say), and returns its path.
func segmentOf(t *testing.T, payloads [][]byte, tail []byte) string {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(segMagic)
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	buf.Write(tail)
	path := filepath.Join(t.TempDir(), "wal-0000000000000001.seg")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// replayAgrees replays path both ways into fresh databases and fails unless
// they stop at the same record with the same result: records applied, the
// clean flag, and every relation's tuples in log order.
func replayAgrees(t *testing.T, path string, what string) int {
	t.Helper()
	got, want := &Recovered{DB: storage.New()}, &Recovered{DB: storage.New()}
	gn, gc, gerr := replaySegment(path, got)
	wn, wc, werr := replayOneAtATime(path, want)
	if gn != wn || gc != wc || (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: replay applied %d records (clean %v, err %v), one at a time %d (clean %v, err %v)",
			what, gn, gc, gerr, wn, wc, werr)
	}
	if g, w := logOrder(got.DB), logOrder(want.DB); g != w {
		t.Fatalf("%s: replay left\n%s\none at a time\n%s", what, g, w)
	}
	return gn
}

func logOrder(db *storage.DB) string {
	var b bytes.Buffer
	for _, sch := range db.Schemas() {
		fmt.Fprintf(&b, "%s:", sch.Name)
		for _, tp := range db.Rel(sch.Name).All() {
			fmt.Fprintf(&b, " %s", tp.Key())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestReplayStopsWhereOneRecordAtATimeStops: replay commits consecutive
// insert records of one relation with one InsertAll, and must stop at the
// same record, with the same database, as replaying them one at a time —
// including when the record that ends a run is of the wrong arity, leaves a
// seq gap, repeats a tuple or cannot be decoded.
func TestReplayStopsWhereOneRecordAtATimeStops(t *testing.T) {
	p2, q2 := relalg.MakeSchema("p", 2), relalg.MakeSchema("q", 2)
	tup := func(i int) relalg.Tuple { return relalg.Tuple{relalg.S(fmt.Sprintf("k%d", i)), relalg.I(int64(i))} }
	ins := func(rel string, seq uint64, i int) []byte { return encodeInsert(rel, seq, tup(i)) }
	head := [][]byte{encodeSchema(p2), encodeSchema(q2)}
	with := func(recs ...[]byte) [][]byte { return append(append([][]byte(nil), head...), recs...) }
	long := with()
	for i := 1; i <= 2*replayBatch+7; i++ {
		long = append(long, ins("p", uint64(i), i))
	}
	for _, c := range []struct {
		name    string
		recs    [][]byte
		tail    []byte
		applied int
	}{
		{"runs across kinds and relations", with(ins("p", 1, 1), ins("p", 2, 2), ins("q", 1, 3), ins("p", 3, 4),
			encodeSyncPoint(9), ins("p", 4, 5), encodeState(State{Epoch: 2}, true)), nil, 9},
		{"more than one batch", long, nil, len(long)},
		{"wrong arity mid-run", with(ins("p", 1, 1), ins("p", 2, 2),
			encodeInsert("p", 3, relalg.Tuple{relalg.S("x")}), ins("p", 4, 4)), nil, 4},
		{"wrong arity first", with(ins("q", 1, 1), encodeInsert("p", 1, relalg.Tuple{relalg.S("x")}), ins("p", 2, 2)), nil, 3},
		{"seq gap mid-run", with(ins("p", 1, 1), ins("p", 2, 2), ins("p", 4, 3), ins("p", 5, 4)), nil, 4},
		{"repeated tuple mid-run", with(ins("p", 1, 1), ins("p", 2, 2), ins("p", 3, 1), ins("p", 4, 3)), nil, 5},
		{"repeated tuple ends a run", with(ins("p", 1, 1), ins("p", 2, 1), ins("q", 1, 2), ins("p", 2, 3), ins("p", 3, 4)), nil, 7},
		{"covered seqs are skipped", with(ins("p", 1, 1), ins("p", 2, 2), ins("p", 1, 1), ins("p", 2, 9), ins("p", 3, 3)), nil, 7},
		{"undecodable mid-run", with(ins("p", 1, 1), ins("p", 2, 2), ins("p", 3, 3)[:6], ins("p", 3, 3)), nil, 4},
		{"insert before its schema", with(ins("p", 1, 1), ins("r", 1, 2), ins("p", 2, 2)), nil, 3},
		{"torn tail mid-run", with(ins("p", 1, 1), ins("p", 2, 2)), []byte{9, 0, 0, 0, 1, 2}, 4},
		{"clean close after a run", with(ins("p", 1, 1), encodeState(State{Epoch: 1}, true)), nil, 4},
	} {
		if got := replayAgrees(t, segmentOf(t, c.recs, c.tail), c.name); got != c.applied {
			t.Errorf("%s: %d records applied, want %d", c.name, got, c.applied)
		}
	}

	// And at random: runs of every length, ended by every kind of record.
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		seq, have := map[string]uint64{}, map[string][]int{}
		var recs [][]byte
		for len(recs) < 60 {
			rel := []string{"p", "q"}[rng.Intn(2)]
			switch k := rng.Intn(100); {
			case k < 2:
				recs = append(recs, encodeInsert(rel, seq[rel]+1, relalg.Tuple{relalg.S("x")}))
			case k < 4:
				recs = append(recs, ins(rel, seq[rel]+2, len(recs)))
			case k < 6 && len(have[rel]) > 0:
				seq[rel]++
				recs = append(recs, ins(rel, seq[rel], have[rel][rng.Intn(len(have[rel]))]))
			case k < 8:
				recs = append(recs, ins(rel, uint64(rng.Intn(int(seq[rel])+1)), len(recs)))
			case k < 10:
				recs = append(recs, encodeSyncPoint(uint64(k)))
			default:
				seq[rel]++
				have[rel] = append(have[rel], len(recs))
				recs = append(recs, ins(rel, seq[rel], len(recs)))
			}
		}
		replayAgrees(t, segmentOf(t, with(recs...), nil), fmt.Sprintf("trial %d", trial))
	}
}
