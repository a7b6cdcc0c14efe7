package relalg

import (
	"fmt"
	"hash/maphash"
	"testing"
)

// BenchmarkRelationInsert measures duplicate-free insertion throughput.
func BenchmarkRelationInsert(b *testing.B) {
	b.ReportAllocs()
	r := NewRelation(MakeSchema("bench", 2))
	for i := 0; i < b.N; i++ {
		t := Tuple{S(fmt.Sprintf("k%d", i)), I(int64(i))}
		if _, err := r.Insert(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationInsertProbedPosition is BenchmarkRelationInsert for a
// 3-ary relation whose join column (position 1, 1000 distinct values) has
// been probed: each insert also appends to that one position's postings; the
// other two positions stay unindexed.
func BenchmarkRelationInsertProbedPosition(b *testing.B) {
	b.ReportAllocs()
	r := NewRelation(MakeSchema("bench", 3))
	r.probe([]int{1}, []Value{S("j0")})
	keys := make([]Value, 1000)
	for i := range keys {
		keys[i] = S(fmt.Sprintf("j%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Tuple{S(fmt.Sprintf("k%d", i)), keys[i%len(keys)], I(int64(i))}
		if _, err := r.Insert(t); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := len(r.probe([]int{1}, []Value{keys[0]})); got != (b.N+len(keys)-1)/len(keys) {
		b.Fatalf("probe of the indexed position found %d tuples, want %d", got, (b.N+len(keys)-1)/len(keys))
	}
	if r.posIdx[0] != nil || r.posIdx[2] != nil {
		b.Fatal("an unprobed position was indexed")
	}
}

// BenchmarkRelationInsertDuplicates measures the dedup fast path.
func BenchmarkRelationInsertDuplicates(b *testing.B) {
	r := NewRelation(MakeSchema("bench", 2))
	t := Tuple{S("same"), S("tuple")}
	if _, err := r.Insert(t); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Insert(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationContains measures the membership test on a populated
// relation (hit and miss alternate); it must not allocate.
func BenchmarkRelationContains(b *testing.B) {
	r := NewRelation(MakeSchema("bench", 2))
	probes := make([]Tuple, 1024)
	for i := range probes {
		probes[i] = Tuple{S(fmt.Sprintf("k%d", i)), I(int64(i))}
		if i%2 == 0 {
			_, _ = r.Insert(probes[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if r.Contains(probes[i%len(probes)]) {
			hits++
		}
	}
	if b.N >= len(probes) && hits == 0 {
		b.Fatal("no probe hit")
	}
}

// BenchmarkRelationProbe measures an indexed probe on one bound position of
// a 10k-tuple relation (fan-out 10) into a reused buffer.
func BenchmarkRelationProbe(b *testing.B) {
	r := NewRelation(MakeSchema("bench", 2))
	for i := 0; i < 10000; i++ {
		_, _ = r.Insert(Tuple{S(fmt.Sprintf("k%d", i%1000)), I(int64(i))})
	}
	keys := make([]Value, 1000)
	for i := range keys {
		keys[i] = S(fmt.Sprintf("k%d", i))
	}
	pos := []int{0}
	var buf []Tuple
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.AppendProbe(buf[:0], pos, keys[i%len(keys):i%len(keys)+1])
		if len(buf) != 10 {
			b.Fatalf("probe returned %d tuples, want 10", len(buf))
		}
	}
}

// BenchmarkRelationSince measures the delta view a subscriber extracts from
// a 10k-tuple relation at 1, 30 and 250 new tuples: one slice of row views,
// no copied value.
func BenchmarkRelationSince(b *testing.B) {
	r := NewRelation(MakeSchema("bench", 3))
	for i := 0; i < 10000; i++ {
		_, _ = r.Insert(Tuple{S(fmt.Sprintf("k%d", i%1000)), I(int64(i)), S("c")})
	}
	for _, d := range []int{1, 30, 250} {
		b.Run(fmt.Sprint(d), func(b *testing.B) {
			mark := uint64(r.Len() - d)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if delta, _ := r.Since(mark); len(delta) != d {
					b.Fatalf("Since returned %d tuples, want %d", len(delta), d)
				}
			}
		})
	}
}

// BenchmarkTupleSetAddHas measures the in-memory identity every dedup site
// uses: one Add of a tuple already present and one Has, on a 4-column tuple
// with a long Skolem null. Neither may allocate.
func BenchmarkTupleSetAddHas(b *testing.B) {
	var s TupleSet
	members := make([]Tuple, 1024)
	for i := range members {
		members[i] = Tuple{S(fmt.Sprintf("conf/edbt/franconi04-%d", i)), S("enrico_franconi"), I(2004), Null("d1|r|V|13:sconf/edbt/04")}
		s.Add(members[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := members[i%len(members)]
		if s.Add(t) || !s.Has(t) {
			b.Fatal("member not recognised")
		}
	}
}

// BenchmarkTupleSetHasMiss measures the worst case of the position table:
// Has of absent tuples against a set holding the most members a 1<<16-slot
// table takes before it grows (3/4 of it), where linear-probe runs are
// longest. It must not allocate.
func BenchmarkTupleSetHasMiss(b *testing.B) {
	member := func(i int) Tuple { return Tuple{S("m"), I(int64(i))} }
	// The most members a 1<<16-slot table holds: one fewer than the count at
	// which it grows to 1<<17.
	probe, most := MakeTupleSet(2), 0
	for len(probe.table) <= 1<<16 {
		most = probe.Len()
		probe.Add(member(most))
	}
	s := MakeTupleSet(2)
	for i := range most {
		s.Add(member(i))
	}
	if len(s.table) != 1<<16 {
		b.Fatalf("%d members fill a %d-slot table, want 1<<16", most, len(s.table))
	}
	misses := make([]Tuple, 1024)
	for i := range misses {
		misses[i] = Tuple{S("miss"), I(int64(i))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Has(misses[i%len(misses)]) {
			b.Fatal("absent tuple found")
		}
	}
}

// fullSymtab returns a table at the top of its load band, and the texts it
// holds: 64 buckets of depth 6, each holding the most ids it takes before it
// splits, so linear-probe runs are the longest its index has.
func fullSymtab(b *testing.B) (*symtab, []string) {
	const depth, buckets = 6, 1 << 6
	tab, texts, full := newSymtab(), []string(nil), 0
	for i := 0; full < buckets; i++ {
		text := fmt.Sprintf("full-%d", i)
		bk := tab.index.Load().bucket(maphash.String(tab.seed, text))
		if bk.depth == depth && bk.full() {
			continue // it would split
		}
		tab.intern(text)
		texts = append(texts, text)
		if bk.depth == depth && bk.full() {
			full++
		}
	}
	if x := tab.index.Load(); x.depth != depth {
		b.Fatalf("a full table's directory has depth %d, want %d", x.depth, depth)
	}
	return tab, texts
}

// BenchmarkSymbolInternHit measures intern of a text the table holds, at the
// top of the index's load band: one hash, one probe run, one text compare and
// no lock. It must not allocate.
func BenchmarkSymbolInternHit(b *testing.B) {
	tab, texts := fullSymtab(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab.intern(texts[i%len(texts)]) == 0 {
			b.Fatal("a held text got the id of \"\"")
		}
	}
}

// BenchmarkSymbolInternMiss measures the lock-free lookup an intern of a new
// text makes before it takes the lock, at the top of the index's load band:
// one hash and a probe run to an empty slot. The addition that follows is
// left out, since it would move the table off its band. It must not allocate.
func BenchmarkSymbolInternMiss(b *testing.B) {
	tab, _ := fullSymtab(b)
	misses := make([]string, 1024)
	for i := range misses {
		misses[i] = fmt.Sprintf("miss-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := misses[i%len(misses)]
		if tab.find(maphash.String(tab.seed, s), s, false) >= 0 {
			b.Fatal("an absent text found")
		}
	}
}

// BenchmarkTupleKey measures the canonical key encoding.
func BenchmarkTupleKey(b *testing.B) {
	t := Tuple{S("conf/edbt/franconi04-1-2"), S("enrico_franconi"), I(2004), Null("d1|r|V|k")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = t.Key()
	}
}

// BenchmarkSubsumedByExisting measures the core-mode redundancy scan.
func BenchmarkSubsumedByExisting(b *testing.B) {
	r := NewRelation(MakeSchema("bench", 3))
	for i := 0; i < 1000; i++ {
		_, _ = r.Insert(Tuple{S(fmt.Sprintf("k%d", i)), S("a"), I(int64(i))})
	}
	probe := Tuple{S("k500"), Null("n"), I(500)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.SubsumedByExisting(probe) {
			b.Fatal("probe should be subsumed")
		}
	}
}

// BenchmarkTupleCodec measures the byte codec the WAL and the wire share.
func BenchmarkTupleCodec(b *testing.B) {
	t := Tuple{S("conf/edbt/franconi04"), S("Robust Data Sharing"), I(2004)}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendTuple(buf[:0], t)
		r := NewReader(buf)
		if back := r.Tuple(); r.Err() != nil || !back.Equal(t) {
			b.Fatal(back, r.Err())
		}
	}
}
