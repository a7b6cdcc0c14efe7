package relalg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTupleKeyInjective(t *testing.T) {
	a := Tuple{S("x"), S("y")}
	b := Tuple{S("x" + string(rune(0x1f)) + "sy")} // attempt a separator collision
	if a.Key() == b.Key() && a.Compare(b) != 0 {
		t.Errorf("tuple key collision: %v vs %v", a, b)
	}
	c := Tuple{S("a"), S("b")}
	d := Tuple{S("a"), S("b")}
	if c.Key() != d.Key() {
		t.Error("equal tuples must share keys")
	}
}

// TestTupleKeyGolden pins Key's bytes: Skolem null labels embed them, WALs
// persist those labels and nodes compare them, so the encoding is a format.
func TestTupleKeyGolden(t *testing.T) {
	cases := []struct {
		t    Tuple
		want string
	}{
		{Tuple{}, ""},
		{Tuple{S("")}, "1:s"},
		{Tuple{S("ab"), S("c")}, "3:sab2:sc"},
		{Tuple{I(0), I(-42), I(2004)}, "2:i04:i-425:i2004"},
		{Tuple{Null("n1"), Null("")}, "3:nn11:n"},
		{Tuple{S("1"), I(1), Null("1")}, "2:s12:i12:n1"},
		{Tuple{S("a:b"), S("3:sab"), S("x\x00y")}, "4:sa:b6:s3:sab4:sx\x00y"},
		{Tuple{S("0123456789"), Null("d1|r|V|2:sa")}, "11:s012345678912:nd1|r|V|2:sa"},
		{Tuple{S(strings.Repeat("k", 200))}, "201:s" + strings.Repeat("k", 200)}, // beyond the stack buffer
	}
	for _, tc := range cases {
		if got := tc.t.Key(); got != tc.want {
			t.Errorf("Key(%v) = %q, want %q", tc.t, got, tc.want)
		}
		// Key is the concatenation of length-prefixed Value.Key()s.
		var b strings.Builder
		for _, v := range tc.t {
			fmt.Fprintf(&b, "%d:%s", len(v.Key()), v.Key())
		}
		if b.String() != tc.want {
			t.Errorf("reference encoding of %v = %q, want %q", tc.t, b.String(), tc.want)
		}
	}
}

func TestTupleSubsumedBy(t *testing.T) {
	cases := []struct {
		t, u Tuple
		want bool
	}{
		{Tuple{S("a"), Null("n")}, Tuple{S("a"), S("b")}, true},
		{Tuple{S("a"), Null("n")}, Tuple{S("c"), S("b")}, false},
		{Tuple{Null("n"), Null("n")}, Tuple{S("a"), S("a")}, true},
		{Tuple{Null("n"), Null("n")}, Tuple{S("a"), S("b")}, false}, // same null must map consistently
		{Tuple{Null("n"), Null("m")}, Tuple{S("a"), S("b")}, true},
		{Tuple{S("a")}, Tuple{S("a"), S("b")}, false}, // arity mismatch
		{Tuple{S("a"), S("b")}, Tuple{S("a"), S("b")}, true},
		{Tuple{Null("n")}, Tuple{Null("m")}, true}, // null may map to another null
	}
	for i, c := range cases {
		if got := c.t.SubsumedBy(c.u); got != c.want {
			t.Errorf("case %d: SubsumedBy(%v, %v) = %v, want %v", i, c.t, c.u, got, c.want)
		}
	}
}

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation(MakeSchema("e", 2))
	added, err := r.Insert(Tuple{S("a"), S("b")})
	if err != nil || !added {
		t.Fatalf("first insert: added=%v err=%v", added, err)
	}
	added, err = r.Insert(Tuple{S("a"), S("b")})
	if err != nil || added {
		t.Fatalf("duplicate insert must be a no-op: added=%v err=%v", added, err)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1", r.Len())
	}
	if _, err := r.Insert(Tuple{S("a")}); err == nil {
		t.Error("arity mismatch must error")
	}
}

func TestRelationDeltaHighWaterMarks(t *testing.T) {
	r := NewRelation(MakeSchema("e", 1))
	mustInsert(t, r, Tuple{S("1")})
	mustInsert(t, r, Tuple{S("2")})
	delta, mark := r.Since(0)
	if len(delta) != 2 || mark != 2 {
		t.Fatalf("Since(0) = %v tuples, mark %d", len(delta), mark)
	}
	mustInsert(t, r, Tuple{S("3")})
	delta, mark = r.Since(mark)
	if len(delta) != 1 || delta[0][0] != S("3") || mark != 3 {
		t.Fatalf("Since(2) = %v, mark %d", delta, mark)
	}
	// A stale over-large mark must clamp rather than panic.
	delta, mark = r.Since(99)
	if len(delta) != 0 || mark != 3 {
		t.Fatalf("Since(99) = %v, mark %d", delta, mark)
	}
}

func TestRelationSubsumedByExisting(t *testing.T) {
	r := NewRelation(MakeSchema("e", 2))
	mustInsert(t, r, Tuple{S("a"), S("b")})
	if !r.SubsumedByExisting(Tuple{S("a"), Null("x")}) {
		t.Error("null tuple subsumed by constant tuple should be detected")
	}
	if r.SubsumedByExisting(Tuple{S("z"), Null("x")}) {
		t.Error("non-subsumed tuple misreported")
	}
	if !r.SubsumedByExisting(Tuple{S("a"), S("b")}) {
		t.Error("constant tuple present should be subsumed")
	}
	if r.SubsumedByExisting(Tuple{S("a"), S("c")}) {
		t.Error("absent constant tuple should not be subsumed")
	}
}

func TestRelationCloneIsDeep(t *testing.T) {
	r := NewRelation(MakeSchema("e", 1))
	mustInsert(t, r, Tuple{S("1")})
	c := r.Clone()
	mustInsert(t, c, Tuple{S("2")})
	if r.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone not independent: r=%d c=%d", r.Len(), c.Len())
	}
	if !r.Equal(r.Clone()) {
		t.Error("relation must Equal its clone")
	}
	if r.Equal(c) {
		t.Error("different relations must not be Equal")
	}
}

func TestRelationStringCapped(t *testing.T) {
	r := NewRelation(MakeSchema("big", 1))
	for i := 0; i < 40; i++ {
		mustInsert(t, r, Tuple{I(int64(i))})
	}
	s := r.String()
	if !strings.Contains(s, "…+24") {
		t.Errorf("expected capped rendering, got %q", s)
	}
}

func TestRelationInsertPropertyIdempotent(t *testing.T) {
	// Property: inserting any sequence of tuples twice yields the same
	// relation as inserting it once, and Len equals the number of distinct
	// keys.
	f := func(raw [][2]int8) bool {
		r1 := NewRelation(MakeSchema("p", 2))
		r2 := NewRelation(MakeSchema("p", 2))
		distinct := map[string]bool{}
		for _, p := range raw {
			tp := Tuple{I(int64(p[0])), I(int64(p[1]))}
			distinct[tp.Key()] = true
			if _, err := r1.Insert(tp); err != nil {
				return false
			}
			if _, err := r2.Insert(tp); err != nil {
				return false
			}
			if _, err := r2.Insert(tp); err != nil {
				return false
			}
		}
		return r1.Equal(r2) && r1.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSortedIsCanonical(t *testing.T) {
	r := NewRelation(MakeSchema("e", 1))
	mustInsert(t, r, Tuple{S("b")})
	mustInsert(t, r, Tuple{S("a")})
	s := r.Sorted()
	if s[0][0] != S("a") || s[1][0] != S("b") {
		t.Errorf("sorted order wrong: %v", s)
	}
	// All() preserves insertion order.
	a := r.All()
	if a[0][0] != S("b") {
		t.Errorf("insertion order lost: %v", a)
	}
}

func mustInsert(t *testing.T, r *Relation, tp Tuple) {
	t.Helper()
	if _, err := r.Insert(tp); err != nil {
		t.Fatal(err)
	}
}

func TestProbeMatchesScan(t *testing.T) {
	r := NewRelation(MakeSchema("p", 3))
	for i := 0; i < 40; i++ {
		mustInsert(t, r, Tuple{S(fmt.Sprintf("k%d", i%8)), I(int64(i % 5)), S("c")})
	}
	cases := []struct {
		pos  []int
		vals []Value
	}{
		{nil, nil},
		{[]int{0}, []Value{S("k3")}},
		{[]int{1}, []Value{I(2)}},
		{[]int{0, 1}, []Value{S("k3"), I(3)}},
		{[]int{0, 1, 2}, []Value{S("k0"), I(0), S("c")}},
		{[]int{0}, []Value{S("absent")}},
		{[]int{2}, []Value{S("c")}},
		{[]int{7}, []Value{S("c")}}, // out-of-range position matches nothing
	}
	for _, tc := range cases {
		got := r.probe(tc.pos, tc.vals)
		var want []Tuple
		for _, u := range r.All() {
			ok := true
			for i, p := range tc.pos {
				if p < 0 || p >= len(u) || u[p] != tc.vals[i] {
					ok = false
					break
				}
			}
			if ok {
				want = append(want, u)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Probe(%v,%v): %d tuples, scan says %d", tc.pos, tc.vals, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("Probe(%v,%v)[%d] = %v, scan says %v", tc.pos, tc.vals, i, got[i], want[i])
			}
		}
	}
}

func TestProbeSeesPostBuildInserts(t *testing.T) {
	r := NewRelation(MakeSchema("p", 2))
	mustInsert(t, r, Tuple{S("a"), S("1")})
	if got := r.probe([]int{0}, []Value{S("a")}); len(got) != 1 {
		t.Fatalf("probe before insert: %v", got)
	}
	// The index is built now; later inserts must be reflected.
	mustInsert(t, r, Tuple{S("a"), S("2")})
	if got := r.probe([]int{0}, []Value{S("a")}); len(got) != 2 {
		t.Fatalf("index missed a post-build insert: %v", got)
	}
	// Clones rebuild the index independently.
	c := r.Clone()
	mustInsert(t, c, Tuple{S("a"), S("3")})
	if got := c.probe([]int{0}, []Value{S("a")}); len(got) != 3 {
		t.Fatalf("clone probe: %v", got)
	}
	if got := r.probe([]int{0}, []Value{S("a")}); len(got) != 2 {
		t.Fatalf("clone insert leaked into original: %v", got)
	}
}

func TestSubsumedByExistingIndexed(t *testing.T) {
	r := NewRelation(MakeSchema("p", 3))
	mustInsert(t, r, Tuple{S("k"), S("v"), I(7)})
	mustInsert(t, r, Tuple{S("k2"), S("v2"), I(9)})
	cases := []struct {
		probe Tuple
		want  bool
	}{
		{Tuple{S("k"), Null("n"), I(7)}, true},
		{Tuple{S("k"), Null("n"), I(8)}, false},
		{Tuple{Null("a"), Null("b"), Null("c")}, true}, // all-null: full scan path
		{Tuple{S("zzz"), Null("n"), Null("m")}, false},
		{Tuple{Null("n"), Null("n"), I(9)}, false}, // repeated null must map consistently
		{Tuple{S("k"), S("v"), I(7)}, true},        // constant-only reduces to Contains
	}
	for _, tc := range cases {
		if got := r.SubsumedByExisting(tc.probe); got != tc.want {
			t.Errorf("SubsumedByExisting(%v) = %v, want %v", tc.probe, got, tc.want)
		}
	}
	// Arity mismatch can never be subsumed.
	if r.SubsumedByExisting(Tuple{Null("n")}) {
		t.Error("arity mismatch subsumed")
	}
}

// probe is AppendProbe into a fresh slice.
func (r *Relation) probe(positions []int, vals []Value) []Tuple {
	return r.AppendProbe(nil, positions, vals)
}

// scanProbe is the oracle of probe: a linear scan of the log.
func scanProbe(r *Relation, pos []int, vals []Value) []Tuple {
	var want []Tuple
	for _, u := range r.All() {
		ok := true
		for i, p := range pos {
			ok = ok && u[p] == vals[i]
		}
		if ok {
			want = append(want, u)
		}
	}
	return want
}

// TestLazyIndexProbeOracle: a position is indexed when a probe first names it
// and by the hash its values carry, so (a) positions are probed in every
// order, with inserts before and after each position's first probe, and every
// probe must agree with a scan of the log; (b) the value hash is degraded to
// a constant and to one bit, so postings lists hold values that merely
// collide and only the verification of every probed position keeps them out;
// (c) a position no probe has named has no index.
func TestLazyIndexProbeOracle(t *testing.T) {
	hashes := map[string]func(Value) uint64{
		"real":     nil,
		"constant": func(Value) uint64 { return 0 },
		"one-bit":  func(v Value) uint64 { return v.Hash() & 1 },
	}
	for name, hashFn := range hashes {
		rng := rand.New(rand.NewSource(20261002))
		for trial := 0; trial < 100; trial++ {
			arity := 1 + rng.Intn(4)
			r := NewRelation(MakeSchema("p", arity))
			r.valHash = hashFn
			probed := make([]bool, arity)
			for step, n := 0, 20+rng.Intn(80); step < n; step++ {
				if rng.Intn(3) > 0 {
					tp := make(Tuple, arity)
					for j := range tp {
						tp[j] = adversarialValues[rng.Intn(8)]
					}
					mustInsert(t, r, tp)
					continue
				}
				var pos []int
				var vals []Value
				for _, p := range rng.Perm(arity)[:1+rng.Intn(arity)] {
					pos = append(pos, p)
					vals = append(vals, adversarialValues[rng.Intn(8)])
					probed[p] = true
				}
				if got, want := r.probe(pos, vals), scanProbe(r, pos, vals); !sameTuples(got, want) {
					t.Fatalf("%s hash, trial %d step %d: Probe(%v,%v) = %v, scan says %v", name, trial, step, pos, vals, got, want)
				}
				for p := range probed {
					if (r.posIdx[p] != nil) != probed[p] {
						t.Fatalf("%s hash, trial %d: position %d indexed=%v, probed=%v", name, trial, p, r.posIdx[p] != nil, probed[p])
					}
				}
			}
		}
	}
	// Probing with no position, or with one outside the schema, indexes nothing.
	r := NewRelation(MakeSchema("p", 2))
	mustInsert(t, r, Tuple{S("a"), S("b")})
	r.probe(nil, nil)
	r.probe([]int{0, 5}, []Value{S("a"), S("b")})
	if r.posIdx != nil {
		t.Fatalf("an unprobed relation built an index: %v", r.posIdx)
	}
}

// TestSinceIsACappedView: the slice Since returns aliases the log's immutable
// prefix and nothing beyond it — appending to it cannot reach the relation,
// and it reads the same tuples after the relation grew past many
// reallocations of its log.
func TestSinceIsACappedView(t *testing.T) {
	r := NewRelation(MakeSchema("p", 2))
	for i := 0; i < 10; i++ {
		mustInsert(t, r, Tuple{S("k"), I(int64(i))})
	}
	view, mark := r.Since(4)
	if mark != 10 || len(view) != 6 || cap(view) != 6 {
		t.Fatalf("Since(4) = %d tuples, cap %d, mark %d; want 6, 6, 10", len(view), cap(view), mark)
	}
	mustInsert(t, r, Tuple{S("k"), I(10)})
	_ = append(view, Tuple{S("intruder"), I(-1)})
	if got := r.All()[10]; !got.Equal(Tuple{S("k"), I(10)}) {
		t.Fatalf("append to a Since view overwrote the log: %v", got)
	}
	for i := 11; i < 10011; i++ {
		mustInsert(t, r, Tuple{S("k"), I(int64(i))})
	}
	for i, tp := range view {
		if !tp.Equal(Tuple{S("k"), I(int64(4 + i))}) {
			t.Fatalf("view[%d] = %v after 10000 further inserts", i, tp)
		}
	}
}
