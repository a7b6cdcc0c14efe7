package storage_test

import (
	"fmt"
	"testing"

	"repro/internal/relalg"
	"repro/internal/storage"
	"repro/internal/wal"
)

// BenchmarkDBInsertAll commits 1 000 fresh 3-tuples into one relation, as one
// InsertAll and as one Insert per tuple, into a bare database and into one
// with a write-ahead log attached (FsyncNever: the append, not the disk, is
// measured). ns/op is per 1 000 tuples.
func BenchmarkDBInsertAll(b *testing.B) {
	const n = 1000
	batch := make([]relalg.Tuple, n)
	for i := range batch {
		batch[i] = relalg.Tuple{relalg.S(fmt.Sprintf("conf/edbt/%d", i)), relalg.S(fmt.Sprintf("title_%d", i)), relalg.I(int64(1990 + i%30))}
	}
	for _, logged := range []bool{false, true} {
		for _, batched := range []bool{true, false} {
			name := map[bool]string{true: "InsertAll", false: "Insert"}[batched]
			if logged {
				name += "/wal"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					db := storage.New(relalg.MakeSchema("pub", 3))
					var st *wal.Store
					if logged {
						var err error
						if st, _, err = wal.Open(b.TempDir(), wal.Options{Fsync: wal.FsyncNever}); err != nil {
							b.Fatal(err)
						}
						st.Attach(db)
					}
					b.StartTimer()
					if batched {
						if _, err := db.InsertAll("pub", batch, storage.InsertExact); err != nil {
							b.Fatal(err)
						}
					} else {
						for _, t := range batch {
							if _, err := db.Insert("pub", t, storage.InsertExact); err != nil {
								b.Fatal(err)
							}
						}
					}
					b.StopTimer()
					if st != nil {
						if err := st.Close(); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			})
		}
	}
}
