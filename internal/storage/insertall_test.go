package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/relalg"
)

// notice is one tuple as a listener saw it committed.
type notice struct {
	rel string
	seq uint64
	key string
}

// recordNotices attaches a listener that flattens every run into notices and
// counts the calls.
func recordNotices(db *DB, out *[]notice, calls *int) {
	db.AddInsertListener(func(rel string, ts []relalg.Tuple, last uint64) {
		*calls++
		for i, tp := range ts {
			*out = append(*out, notice{rel, last - uint64(len(ts)-1-i), tp.Key()})
		}
	})
}

// randomBatch draws tuples over a small domain, so a batch repeats tuples of
// its own and of earlier batches, and a third of the values are nulls, so
// InsertCore has subsumptions to find.
func randomBatch(rng *rand.Rand, n int) []relalg.Tuple {
	value := func() relalg.Value {
		if rng.Intn(3) == 0 {
			return relalg.Null(fmt.Sprintf("n|%d", rng.Intn(3)))
		}
		return relalg.S(fmt.Sprintf("c%d", rng.Intn(4)))
	}
	batch := make([]relalg.Tuple, n)
	for i := range batch {
		batch[i] = relalg.Tuple{value(), value()}
	}
	return batch
}

// TestInsertAllIsInsertPerTuple: in both modes, InsertAll over random batches
// leaves the same dump, seqs, new-tuple counts and listener stream (flattened)
// as one Insert per tuple, calls the listener at most once per run, and does
// not write its argument. Batches of up to 80 tuples cross maxRuns.
func TestInsertAllIsInsertPerTuple(t *testing.T) {
	for _, mode := range []InsertMode{InsertExact, InsertCore} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			batched, single := New(relalg.MakeSchema("p", 2)), New(relalg.MakeSchema("p", 2))
			var got, want []notice
			var calls, singles int
			recordNotices(batched, &got, &calls)
			recordNotices(single, &want, &singles)
			runs := 0
			for b := 0; b < 6; b++ {
				batch := randomBatch(rng, rng.Intn(80))
				before := make([]relalg.Tuple, len(batch))
				for i, tp := range batch {
					before[i] = slices.Clone(tp)
				}
				n, err := batched.InsertAll("p", batch, mode)
				if err != nil {
					t.Fatal(err)
				}
				m := 0
				wasNew := false
				for _, tp := range batch {
					ok, err := single.Insert("p", tp, mode)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						m++
						if !wasNew {
							runs++
						}
					}
					wasNew = ok
				}
				for i := range batch {
					if !batch[i].Equal(before[i]) {
						t.Fatalf("mode %d seed %d: InsertAll wrote batch[%d]: %v, was %v", mode, seed, i, batch[i], before[i])
					}
				}
				if n != m {
					t.Fatalf("mode %d seed %d batch %d: InsertAll added %d, Insert per tuple %d", mode, seed, b, n, m)
				}
			}
			if batched.Dump() != single.Dump() || batched.Rel("p").Seq() != single.Rel("p").Seq() {
				t.Fatalf("mode %d seed %d: dumps differ:\n%s\nvs per tuple\n%s", mode, seed, batched.Dump(), single.Dump())
			}
			if !slices.Equal(got, want) {
				t.Fatalf("mode %d seed %d: listener stream\n%v\nper tuple\n%v", mode, seed, got, want)
			}
			if calls != runs {
				t.Fatalf("mode %d seed %d: %d listener calls for %d runs of new tuples", mode, seed, calls, runs)
			}
		}
	}
}

// TestInsertAllAllocatesNothing: a batch of runs and duplicates, more runs
// than one hold of the lock records, costs no allocation beyond the rows it
// stores (amortised, well under one per call).
func TestInsertAllAllocatesNothing(t *testing.T) {
	db := New(relalg.MakeSchema("p", 1))
	dup := relalg.Tuple{relalg.S("dup")}
	if _, err := db.Insert("p", dup, InsertExact); err != nil {
		t.Fatal(err)
	}
	var seen uint64
	db.AddInsertListener(func(_ string, ts []relalg.Tuple, last uint64) { seen += uint64(len(ts)) })
	batch := make([]relalg.Tuple, 0, 3*(maxRuns+4))
	for i := 0; i < maxRuns+4; i++ {
		batch = append(batch, make(relalg.Tuple, 1), make(relalg.Tuple, 1), dup)
	}
	next := 0
	if allocs := testing.AllocsPerRun(50, func() {
		for _, tp := range batch {
			if tp[0] != dup[0] {
				tp[0] = relalg.I(int64(next))
				next++
			}
		}
		if _, err := db.InsertAll("p", batch, InsertExact); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("InsertAll: %.0f allocations per call, want 0", allocs)
	}
	if want := uint64(next); seen != want {
		t.Errorf("listener saw %d tuples, want %d", seen, want)
	}
}

// TestConcurrentBatchListeners: batches into two relations from four
// goroutines, with listeners that read the database as they run: every seq of
// each relation is notified exactly once, with its own tuple (run under
// -race).
func TestConcurrentBatchListeners(t *testing.T) {
	db := New(relalg.MakeSchema("p", 2), relalg.MakeSchema("q", 2))
	var mu sync.Mutex
	keys := map[string][]string{}
	db.AddInsertListener(func(rel string, ts []relalg.Tuple, last uint64) {
		first := last - uint64(len(ts))
		stored, _ := db.DeltaSince(Marks{rel: first}, []string{rel})
		mu.Lock()
		defer mu.Unlock()
		for i, tp := range ts {
			if got := stored[rel][i]; !got.Equal(tp) {
				t.Errorf("%s seq %d notified as %v, stored %v", rel, first+uint64(i)+1, tp, got)
			}
			keys[rel] = append(keys[rel], tp.Key())
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rel := []string{"p", "q"}[g%2]
			for b := 0; b < 50; b++ {
				batch := make([]relalg.Tuple, 0, 20)
				for i := 0; i < 20; i++ {
					// Half the tuples are shared by the two writers of a relation.
					owner := g
					if i%2 == 0 {
						owner = g % 2
					}
					batch = append(batch, relalg.Tuple{relalg.I(int64(owner)), relalg.I(int64(b*20 + i))})
				}
				if _, err := db.InsertAll(rel, batch, InsertCore); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, rel := range []string{"p", "q"} {
		if got, want := len(keys[rel]), db.Count(rel); got != want || want != 1500 {
			t.Errorf("%s: %d notified, %d stored, want 1500", rel, got, want)
		}
		slices.Sort(keys[rel])
		if len(slices.Compact(keys[rel])) != db.Count(rel) {
			t.Errorf("%s: a tuple was notified twice", rel)
		}
	}
}
