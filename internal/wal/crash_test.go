package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// Crash-injection suite: the store is killed at random byte offsets —
// truncated tails and torn records — and recovery must yield a
// prefix-consistent database: exactly the oracle state after the last record
// that made it to disk in full, never a gap, never a reordering.

// crashOp is one oracle-replayable operation.
type crashOp struct {
	schema relalg.Schema // valid when rel == ""
	rel    string
	t      relalg.Tuple
}

func genOps(rng *rand.Rand, n int) []crashOp {
	ops := []crashOp{{schema: relalg.MakeSchema("r0", 2)}}
	rels := []string{"r0"}
	serial := 0
	for len(ops) < n {
		if rng.Intn(100) < 10 && len(rels) < 6 {
			name := fmt.Sprintf("r%d", len(rels))
			ops = append(ops, crashOp{schema: relalg.MakeSchema(name, 2)})
			rels = append(rels, name)
			continue
		}
		serial++
		ops = append(ops, crashOp{
			rel: rels[rng.Intn(len(rels))],
			t:   relalg.Tuple{relalg.S(fmt.Sprintf("k%d", serial)), relalg.I(int64(serial))},
		})
	}
	return ops
}

func applyOps(t *testing.T, db *storage.DB, ops []crashOp) {
	t.Helper()
	for _, op := range ops {
		if op.rel == "" {
			if err := db.AddSchema(op.schema); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := db.Insert(op.rel, op.t, storage.InsertExact); err != nil {
			t.Fatal(err)
		}
	}
}

func oracleAfter(t *testing.T, ops []crashOp, k int) *storage.DB {
	t.Helper()
	db := storage.New()
	applyOps(t, db, ops[:k])
	return db
}

// writeCrashLog applies ops through a store (single generation, checkpointer
// off), syncing after every op, and returns the segment path plus the file
// size after each op — the exact durable-prefix boundaries.
func writeCrashLog(t *testing.T, dir string, ops []crashOp, segBytes int64) (lastSeg string, sizes []int64) {
	t.Helper()
	st, rec, err := Open(dir, Options{Fsync: FsyncNever, noCheckpointer: true, segmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	st.Attach(rec.DB)
	for _, op := range ops {
		applyOps(t, rec.DB, []crashOp{op})
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		path := segmentPath(dir, st.seg.idx)
		st.mu.Unlock()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		lastSeg, sizes = path, append(sizes, fi.Size())
	}
	st.Abort()
	return lastSeg, sizes
}

// copyDir clones a store directory so each truncation point starts from the
// same crashed image.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashRecoveryPrefixConsistency is the property test of the issue: for
// random operation histories and random kill offsets in the last segment,
// recovery equals the oracle after exactly the records that were durable in
// full — a truncation mid record costs that record and nothing before it.
func TestCrashRecoveryPrefixConsistency(t *testing.T) {
	trials, cuts := 6, 14
	if testing.Short() {
		trials, cuts = 2, 5
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(40 + trial)))
		ops := genOps(rng, 120)
		segBytes := int64(1 << 20) // single segment
		if trial%2 == 1 {
			segBytes = 512 // force rolls: the kill lands in the last of many
		}
		master := t.TempDir()
		lastSeg, sizes := writeCrashLog(t, master, ops, segBytes)
		// Records before the last segment are immutable under a tail kill.
		firstInLast := 0
		base := int64(len(segMagic))
		for k, s := range sizes {
			// sizes are per active segment; after a roll the size resets.
			if k > 0 && s < sizes[k-1] {
				firstInLast = k
				base = int64(len(segMagic))
			}
		}
		finalSize := sizes[len(sizes)-1]
		for c := 0; c < cuts; c++ {
			off := base + rng.Int63n(finalSize-base+1)
			dir := copyDir(t, master)
			seg := filepath.Join(dir, filepath.Base(lastSeg))
			if err := os.Truncate(seg, off); err != nil {
				t.Fatal(err)
			}
			rec, err := Inspect(dir)
			if err != nil {
				t.Fatalf("trial %d cut %d: %v", trial, c, err)
			}
			if rec.Clean {
				t.Fatalf("trial %d cut %d: truncated log cannot be clean", trial, c)
			}
			// The durable prefix: every op of an earlier segment, plus the
			// ops of the last segment whose bytes fit under the cut.
			k := firstInLast
			for k < len(sizes) && sizes[k] <= off {
				k++
			}
			want := oracleAfter(t, ops, k)
			if !rec.DB.Equal(want) {
				t.Fatalf("trial %d cut %d (offset %d, %d/%d ops durable):\n got %s\nwant %s",
					trial, c, off, k, len(ops), rec.DB.Dump(), want.Dump())
			}
		}
	}
}

// TestCrashRecoveryTornByteFlip corrupts a single byte in the last segment:
// recovery must stop at the record the flip hits and reproduce the oracle
// prefix before it.
func TestCrashRecoveryTornByteFlip(t *testing.T) {
	trials, flips := 4, 10
	if testing.Short() {
		trials, flips = 1, 4
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		ops := genOps(rng, 80)
		master := t.TempDir()
		lastSeg, sizes := writeCrashLog(t, master, ops, 1<<20)
		finalSize := sizes[len(sizes)-1]
		for c := 0; c < flips; c++ {
			pos := int64(len(segMagic)) + rng.Int63n(finalSize-int64(len(segMagic)))
			dir := copyDir(t, master)
			seg := filepath.Join(dir, filepath.Base(lastSeg))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			data[pos] ^= 0x5a
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := Inspect(dir)
			if err != nil {
				t.Fatalf("trial %d flip %d: %v", trial, c, err)
			}
			// The flip hits the first record whose frame extends past pos;
			// everything before is intact and must recover exactly.
			k := 0
			for k < len(sizes) && sizes[k] <= pos {
				k++
			}
			want := oracleAfter(t, ops, k)
			if !rec.DB.Equal(want) {
				t.Fatalf("trial %d flip %d (offset %d, %d/%d ops intact):\n got %s\nwant %s",
					trial, c, pos, k, len(ops), rec.DB.Dump(), want.Dump())
			}
		}
	}
}

// TestCrashDuringCheckpointedHistory kills a store that has checkpointed:
// recovery must stitch snapshot + surviving tail into the same prefix.
func TestCrashDuringCheckpointedHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ops := genOps(rng, 150)
	dir := t.TempDir()
	st, rec, err := Open(dir, Options{Fsync: FsyncNever, noCheckpointer: true, segmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	st.Attach(rec.DB)
	applyOps(t, rec.DB, ops[:100])
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, rec.DB, ops[100:])
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Abort()
	got, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleAfter(t, ops, len(ops))
	if !got.DB.Equal(want) {
		t.Fatalf("snapshot+tail recovery differs:\n got %s\nwant %s", got.DB.Dump(), want.Dump())
	}
	if got.SnapshotCounter == 0 {
		t.Fatal("recovery should have started from the snapshot")
	}
}

// FuzzRecoveryGarbageTail appends arbitrary bytes after a valid synced log
// and asserts recovery neither panics nor corrupts the durable prefix: every
// relation's recovered log starts with exactly the oracle's tuples.
func FuzzRecoveryGarbageTail(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xde, 0xad, 0xbe, 0xef})
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, garbage []byte) {
		rng := rand.New(rand.NewSource(1))
		ops := genOps(rng, 30)
		dir := t.TempDir()
		lastSeg, _ := writeCrashLog(t, dir, ops, 1<<20)
		fh, err := os.OpenFile(lastSeg, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(garbage); err != nil {
			t.Fatal(err)
		}
		_ = fh.Close()
		rec, err := Inspect(dir)
		if err != nil {
			t.Fatal(err)
		}
		oracle := oracleAfter(t, ops, len(ops))
		for _, sch := range oracle.Schemas() {
			want := oracle.Rel(sch.Name).All()
			gotRel := rec.DB.Rel(sch.Name)
			if gotRel == nil {
				t.Fatalf("relation %s lost", sch.Name)
			}
			got := gotRel.All()
			if len(got) < len(want) {
				t.Fatalf("relation %s: durable prefix shrank (%d < %d)", sch.Name, len(got), len(want))
			}
			for i, w := range want {
				if !got[i].Equal(w) {
					t.Fatalf("relation %s: prefix diverges at %d: %v != %v", sch.Name, i, got[i], w)
				}
			}
		}
	})
}
