package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// TestBatchesWriteTheSegmentsOfSingleInserts: the same inserts, made one
// Insert at a time and as InsertAll batches (with duplicates, nulls and runs
// split by them), leave byte-identical segment files under every fsync
// policy, segment rolls included: a run is one insert record per tuple, with
// its seq, exactly as single inserts log them.
func TestBatchesWriteTheSegmentsOfSingleInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	value := func() relalg.Value {
		if rng.Intn(4) == 0 {
			return relalg.Null(fmt.Sprintf("n|%d", rng.Intn(5)))
		}
		return relalg.S(fmt.Sprintf("v%d", rng.Intn(40)))
	}
	type batch struct {
		rel string
		ts  []relalg.Tuple
	}
	var batches []batch
	for b := 0; b < 60; b++ {
		bt := batch{rel: []string{"p", "q"}[rng.Intn(2)]}
		for i := rng.Intn(40); i > 0; i-- {
			bt.ts = append(bt.ts, relalg.Tuple{value(), value()})
		}
		batches = append(batches, bt)
	}
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dirs := [2]string{filepath.Join(t.TempDir(), "single"), filepath.Join(t.TempDir(), "batched")}
			for k, dir := range dirs {
				st, db := openAttached(t, dir, Options{Fsync: policy, segmentBytes: 2048, noCheckpointer: true},
					relalg.MakeSchema("p", 2), relalg.MakeSchema("q", 2))
				for _, bt := range batches {
					if k == 1 {
						if _, err := db.InsertAll(bt.rel, bt.ts, storage.InsertCore); err != nil {
							t.Fatal(err)
						}
						continue
					}
					for _, tp := range bt.ts {
						if _, err := db.Insert(bt.rel, tp, storage.InsertCore); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			single, batched := segmentFiles(t, dirs[0]), segmentFiles(t, dirs[1])
			if len(single) < 3 {
				t.Fatalf("%d segments: the inserts should cross several rolls", len(single))
			}
			if len(single) != len(batched) {
				t.Fatalf("single inserts wrote %d segments, batches %d", len(single), len(batched))
			}
			for name, want := range single {
				if got, ok := batched[name]; !ok || !bytes.Equal(got, want) {
					t.Fatalf("segment %s differs: %d bytes batched, %d single", name, len(got), len(want))
				}
			}
		})
	}
}

// segmentFiles reads every segment file of a store directory by name.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = b
	}
	return out
}

// TestConcurrentBatchAppends: one writer per relation appends batches while
// segments roll and the checkpointer compacts them, under FsyncAlways (one
// group commit per run) and FsyncNever; the store recovers the database
// exactly (run under -race: the insert record buffer is shared under the
// store's lock).
func TestConcurrentBatchAppends(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, db := openAttached(t, dir, Options{Fsync: policy, segmentBytes: 1024},
				relalg.MakeSchema("r0", 2), relalg.MakeSchema("r1", 2), relalg.MakeSchema("r2", 2))
			done := make(chan struct{})
			for r := 0; r < 3; r++ {
				go func(rel string) {
					defer func() { done <- struct{}{} }()
					for b := 0; b < 20; b++ {
						batch := make([]relalg.Tuple, 0, 10)
						for i := 0; i < 10; i++ {
							batch = append(batch, tup(fmt.Sprint((b*10+i)/2*2), "v")) // every other tuple repeats
						}
						if _, err := db.InsertAll(rel, batch, storage.InsertExact); err != nil {
							t.Error(err)
							return
						}
					}
				}(fmt.Sprintf("r%d", r))
			}
			for r := 0; r < 3; r++ {
				<-done
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !got.DB.Equal(db) || db.Count("r0") != 100 {
				t.Fatalf("recovered %s\nwant %s", got.DB.Dump(), db.Dump())
			}
		})
	}
}
