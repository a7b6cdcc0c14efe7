package relalg

import (
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// adversarialValues are values whose renderings or payloads coincide while
// the values differ — the cases a sloppy identity would conflate — and the
// ints at the edges of the inline range (intBoundaries).
var adversarialValues = append([]Value{
	S("1"), I(1), Null("1"),
	S(""), Null(""), I(0),
	S("a:b"), S("a"), S("b"), S(":"),
	S("\x00"), S("a\x00b"), Null("a\x00b"),
	S("2:s1"), S("s1"), S("i1"), S("n1"),
	I(-1), I(10), S("10"), S("-1"),
	Null("d1|r|V|" + strings.Repeat("3:sab", 40)),
	Null("d1|r|V|" + strings.Repeat("3:sab", 40) + "x"),
}, boundaryValues()...)

func boundaryValues() []Value {
	vs := make([]Value, len(intBoundaries))
	for i, n := range intBoundaries {
		vs[i] = I(n)
	}
	return vs
}

// randomAdversarialTuple draws a tuple of the given arity from
// adversarialValues.
func randomAdversarialTuple(rng *rand.Rand, arity int) Tuple {
	t := make(Tuple, arity)
	for i := range t {
		t[i] = adversarialValues[rng.Intn(len(adversarialValues))]
	}
	return t
}

// otherArity returns a tuple of another arity (0–4) than t that agrees with
// t as far as both go: a prefix of t, or t extended.
func otherArity(rng *rand.Rand, t Tuple) Tuple {
	n := rng.Intn(4)
	if n >= len(t) {
		n++
	}
	u := make(Tuple, n)
	copy(u, t)
	for i := len(t); i < n; i++ {
		u[i] = adversarialValues[rng.Intn(len(adversarialValues))]
	}
	return u
}

// setOracle is the string-keyed set TupleSet replaced: Key() is injective,
// so a map over it is the reference identity.
type setOracle struct {
	idx   map[string]bool
	order []Tuple
}

func (o *setOracle) add(t Tuple) bool {
	if o.idx == nil {
		o.idx = map[string]bool{}
	}
	if o.idx[t.Key()] {
		return false
	}
	o.idx[t.Key()] = true
	o.order = append(o.order, t)
	return true
}

func checkAgainstOracle(t *testing.T, s *TupleSet, o *setOracle) {
	t.Helper()
	if s.Len() != len(o.order) {
		t.Fatalf("Len = %d, oracle holds %d", s.Len(), len(o.order))
	}
	for i, u := range s.All() {
		if !u.Equal(o.order[i]) || !s.At(i).Equal(u) {
			t.Fatalf("All()[%d] = %v, At(%[1]d) = %v, oracle (insertion order) says %v", i, u, s.At(i), o.order[i])
		}
	}
}

// runOps drives a set and its oracle through the same random mix of Add and
// Has over tuples of one arity. Once the set has a member, a quarter of the
// steps try a tuple of another arity with an equal prefix instead: it is
// never a member, and adding it stores nothing.
func runOps(t *testing.T, s *TupleSet, o *setOracle, rng *rand.Rand, steps, arity int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		tp := randomAdversarialTuple(rng, arity)
		if s.Len() > 0 && rng.Intn(4) == 0 {
			u, n := otherArity(rng, tp), s.Len()
			if s.Has(u) || s.Add(u) || s.Len() != n {
				t.Fatalf("step %d: a %d-ary set took the %d-tuple %v as a member", i, arity, len(u), u)
			}
			continue
		}
		switch op := rng.Intn(8); {
		case op < 5:
			scratch := tp.Clone()
			got, want := s.Add(scratch), o.add(tp)
			if got != want {
				t.Fatalf("step %d: Add(%v) = %v, oracle says %v", i, tp, got, want)
			}
			for j := range scratch {
				scratch[j] = S("overwritten") // the set must hold its own copy
			}
		default:
			if got, want := s.Has(tp), o.idx[tp.Key()]; got != want {
				t.Fatalf("step %d: Has(%v) = %v, oracle says %v", i, tp, got, want)
			}
		}
		if i%16 == 0 {
			checkAgainstOracle(t, s, o)
		}
	}
	checkAgainstOracle(t, s, o)
	if arity == 0 && s.Len() > 1 {
		t.Fatalf("a 0-ary set holds %d members, want at most the empty tuple", s.Len())
	}
	for _, u := range o.order {
		if !s.Has(u) {
			t.Fatalf("member %v not found", u)
		}
	}
}

// TestTupleSetAgreesWithKeyOracle runs one arity per set, 0 to 3, on the
// zero value (which takes its arity from its first member) and on
// MakeTupleSet.
func TestTupleSetAgreesWithKeyOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		arity := int(seed % 4)
		s := &TupleSet{}
		if seed%8 >= 4 {
			made := MakeTupleSet(arity)
			s = &made
		}
		runOps(t, s, &setOracle{}, rand.New(rand.NewSource(seed)), 400, arity)
	}
}

// TestTupleSetVerifiesEqualityOnHit forces every tuple onto one hash: the
// set must still tell them apart, and tell a member from an equal-prefix
// tuple of another arity.
func TestTupleSetVerifiesEqualityOnHit(t *testing.T) {
	constant := func(Tuple) uint64 { return 42 }
	for seed := int64(0); seed < 20; seed++ {
		runOps(t, &TupleSet{hashFn: constant}, &setOracle{}, rand.New(rand.NewSource(seed)), 300, int(seed%4))
	}
	s := &TupleSet{hashFn: constant}
	a, b := Tuple{S("1")}, Tuple{I(1)}
	if !s.Add(a) || s.Has(b) || !s.Add(b) || s.Add(a) || s.Len() != 2 {
		t.Fatalf("colliding distinct tuples were conflated: %v", s.All())
	}
	if wider := (Tuple{S("1"), I(1)}); s.Has(wider) || s.Add(wider) || s.Has(Tuple{}) || s.Add(Tuple{}) || s.Len() != 2 {
		t.Fatalf("a 1-ary set took a tuple of another arity: %v", s.All())
	}
	empty := &TupleSet{hashFn: constant}
	if !empty.Add(Tuple{}) || empty.Add(Tuple{}) || !empty.Has(Tuple{}) || empty.Has(a) || empty.Add(a) || empty.Len() != 1 {
		t.Fatalf("a 0-ary set holds %v, want the empty tuple alone", empty.All())
	}
}

// TestTupleSetOracleAcrossResizes: with every member on one hash, and on two,
// the table is one long probe run; the set must agree with the oracle while
// that run is re-placed by at least three resizes, or by a Grow half-way. A
// 0-ary set holds at most one member, so it only has to agree.
func TestTupleSetOracleAcrossResizes(t *testing.T) {
	hashes := map[string]func(Tuple) uint64{
		"constant": func(Tuple) uint64 { return 42 },
		"one bit": func(tp Tuple) uint64 {
			if len(tp) == 0 {
				return 0
			}
			return uint64(tp[0].Kind()&1) << 63
		},
	}
	for name, fn := range hashes {
		for seed := int64(0); seed < 12; seed++ {
			arity := int(seed % 4)
			s, o := &TupleSet{hashFn: fn}, &setOracle{}
			rng := rand.New(rand.NewSource(seed))
			runOps(t, s, o, rng, 200, arity)
			if seed%2 == 1 {
				s.Grow(500)
			}
			runOps(t, s, o, rng, 200, arity)
			if arity > 0 && len(s.table) < minTable<<3 {
				t.Fatalf("%s hash, seed %d: a table of %d slots has not been resized three times", name, seed, len(s.table))
			}
		}
	}
}

// TestTupleSetTableLoad: the position table is the least power of two, at
// least minTable, whose 3/4 holds the members — after every Add across
// several resizes, after Grow (counting the room it reserved) and in a clone.
// Each slot holds position+1 in its low log2(len) bits and, above them, the
// hash bits just below the home-slot bits.
func TestTupleSetTableLoad(t *testing.T) {
	least := func(n int) int {
		size := minTable
		for size*3/4 < n {
			size *= 2
		}
		return size
	}
	check := func(what string, s *TupleSet, n int) {
		t.Helper()
		if got, want := len(s.table), least(n); got != want {
			t.Fatalf("%s: %d members, a table of %d slots; want %d", what, s.Len(), got, want)
		}
		b := uint(bits.TrailingZeros(uint(len(s.table))))
		low := uint32(len(s.table) - 1)
		held := 0
		for i, e := range s.table {
			if e == 0 {
				continue
			}
			held++
			pos := int(e&low) - 1
			if pos < 0 || pos >= s.Len() {
				t.Fatalf("%s: slot %d holds position %d of %d", what, i, pos, s.Len())
			}
			if h := s.hash(s.At(pos)); e&^low != uint32(h<<b>>32)&^low {
				t.Fatalf("%s: slot %d tags position %d with %#x, its hash %#x says %#x", what, i, pos, e&^low, h, uint32(h<<b>>32)&^low)
			}
		}
		if held != s.Len() {
			t.Fatalf("%s: %d slots held for %d members", what, held, s.Len())
		}
	}
	var s TupleSet
	for i := 0; i < 1000; i++ {
		s.Add(Tuple{S("k"), I(int64(i))})
		check("Add", &s, s.Len())
	}
	if len(s.table) < minTable<<3 {
		t.Fatalf("a table of %d slots has not been resized three times", len(s.table))
	}
	s.Grow(5000)
	check("Grow(5000)", &s, s.Len()+5000)
	c := s.clone()
	check("clone", &c, s.Len()+5000)
	for i := 0; i < s.Len(); i++ {
		if !c.Has(s.At(i)) {
			t.Fatalf("the clone lost member %v", s.At(i))
		}
	}
	var g TupleSet
	g.Grow(7)
	check("Grow(7) of the zero value", &g, 7)
}

// TestStoredTuplesAliasNothingOfTheCaller: Add and Relation.Insert copy,
// so the caller's scratch tuple can be reused; and a slice taken from All or
// Since keeps reading the same tuples while the set grows under it.
func TestStoredTuplesAliasNothingOfTheCaller(t *testing.T) {
	r := NewRelation(MakeSchema("p", 2))
	var s TupleSet
	scratch := make(Tuple, 2)
	fill := func(i int) Tuple {
		scratch[0], scratch[1] = S("k"+strconv.Itoa(i)), I(int64(i))
		return scratch
	}
	for i := 0; i < 5; i++ {
		mustInsert(t, r, fill(i))
		s.Add(fill(i))
	}
	allBefore, setBefore := r.All(), s.All()
	sinceBefore, _ := r.Since(2)
	want := []Tuple{{S("k0"), I(0)}, {S("k1"), I(1)}, {S("k2"), I(2)}, {S("k3"), I(3)}, {S("k4"), I(4)}}
	for i := 5; i < 5000; i++ { // log, table and chunks all grow many times over
		mustInsert(t, r, fill(i))
		s.Add(fill(i))
	}
	scratch[0], scratch[1] = S("overwritten"), I(-1)
	for name, got := range map[string][]Tuple{"Relation.All": allBefore, "TupleSet.All": setBefore, "Since(2)": sinceBefore} {
		w := want
		if name == "Since(2)" {
			w = want[2:]
		}
		if !sameTuples(got, w) {
			t.Errorf("%s taken before the growth now reads %v, want %v", name, got, w)
		}
	}
	if !sameTuples(r.All()[:5], want) || !sameTuples(s.All()[:5], want) || r.Len() != 5000 || s.Len() != 5000 {
		t.Errorf("stored tuples changed: %v / %v", r.All()[:5], s.All()[:5])
	}
	if r.Contains(Tuple{S("overwritten"), I(-1)}) || !r.Contains(Tuple{S("k4999"), I(4999)}) {
		t.Error("the relation stored the caller's scratch tuple, not a copy")
	}
}

// TestRelationInsertAllocations pins the per-tuple cost of the tuple path's
// sink: a stored tuple is a row of a shared chunk, the table grows
// geometrically, and a duplicate is refused without allocating.
func TestRelationInsertAllocations(t *testing.T) {
	const n = 10000
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{S("author-" + strconv.Itoa(i)), S("title-" + strconv.Itoa(i%97)), I(int64(i))}
	}
	scratch := make(Tuple, 3)
	var r *Relation
	perRun := testing.AllocsPerRun(5, func() {
		r = NewRelation(MakeSchema("p", 3))
		for _, tp := range tuples {
			copy(scratch, tp)
			if added, err := r.Insert(scratch); err != nil || !added {
				t.Fatalf("Insert(%v) = %v, %v", tp, added, err)
			}
		}
	})
	if perTuple := perRun / n; perTuple >= 0.2 {
		t.Errorf("%d fresh 3-ary inserts cost %.0f allocations, %.3f per tuple; want < 0.2", n, perRun, perTuple)
	}
	if r.posIdx != nil {
		t.Errorf("a never-probed relation holds an index: %v", r.posIdx)
	}
	// One probed position of three (97 distinct values: a join column): its
	// postings grow geometrically, the other two positions stay unindexed, and
	// the budget holds.
	var probed *Relation
	perRun = testing.AllocsPerRun(5, func() {
		probed = NewRelation(MakeSchema("p", 3))
		probed.probe([]int{1}, []Value{S("title-0")})
		for _, tp := range tuples {
			copy(scratch, tp)
			if added, err := probed.Insert(scratch); err != nil || !added {
				t.Fatalf("Insert(%v) = %v, %v", tp, added, err)
			}
		}
	})
	if perTuple := perRun / n; perTuple >= 0.2 {
		t.Errorf("%d inserts with position 1 indexed cost %.0f allocations, %.3f per tuple; want < 0.2", n, perRun, perTuple)
	}
	if probed.posIdx[0] != nil || probed.posIdx[1] == nil || probed.posIdx[2] != nil {
		t.Errorf("indexed positions %v, want only position 1", probed.posIdx)
	}
	if got := probed.probe([]int{1}, []Value{S("title-5")}); len(got) != 104 {
		t.Errorf("probe of the indexed position found %d tuples, want 104", len(got))
	}
	if dup := testing.AllocsPerRun(100, func() {
		copy(scratch, tuples[n/2])
		if added, _ := r.Insert(scratch); added {
			t.Fatal("duplicate accepted")
		}
	}); dup != 0 {
		t.Errorf("a duplicate insert costs %.1f allocations, want 0", dup)
	}
	if c := r.Clone(); !c.Equal(r) || c.Len() != n {
		t.Error("Clone differs from its source")
	}
	if perRun := testing.AllocsPerRun(5, func() { r.Clone() }); perRun/n >= 0.01 {
		t.Errorf("Clone of %d tuples costs %.0f allocations, want it to copy chunks, not tuples", n, perRun)
	}
}

func TestHashConsistentWithEquality(t *testing.T) {
	for _, v := range adversarialValues {
		same := v // a copy: equal values hash equally
		if v.Hash() != same.Hash() {
			t.Fatalf("Hash(%v) unstable", v)
		}
	}
	if S("1").Hash() == I(1).Hash() || S("1").Hash() == Null("1").Hash() {
		t.Error("kinds with equal payloads share a hash")
	}
	if (Tuple{S("a"), S("b")}).Hash() == (Tuple{S("b"), S("a")}).Hash() {
		t.Error("tuple hash ignores order")
	}
	if (Tuple{}).Hash() == (Tuple{S("")}).Hash() {
		t.Error("tuple hash ignores arity")
	}
}

// TestOutputIndependentOfHashSeed: insertion-ordered iteration means nothing
// a caller can observe depends on the per-process seed.
func TestOutputIndependentOfHashSeed(t *testing.T) {
	run := func() (all, sorted []Tuple, probe []Tuple) {
		defer Reseed()()
		rng := rand.New(rand.NewSource(7))
		r := NewRelation(MakeSchema("p", 2))
		for i := 0; i < 500; i++ {
			// Values are rebuilt under each seed, as another process would
			// build them (pickValue goes through S, I and Null).
			v := adversarialValues[rng.Intn(len(adversarialValues))]
			tp := Tuple{pickValue(uint8(v.Kind()), v.Int(), v.Str()), I(int64(rng.Intn(9)))}
			if _, err := r.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		return r.All(), r.Sorted(), r.probe([]int{1}, []Value{I(3)})
	}
	all1, sorted1, probe1 := run()
	all2, sorted2, probe2 := run()
	// Compared by serialised identity, the one another process shares.
	keys := func(ts []Tuple) (out []string) {
		for _, tp := range ts {
			out = append(out, tp.Key())
		}
		return out
	}
	for name, pair := range map[string][2][]Tuple{"All": {all1, all2}, "Sorted": {sorted1, sorted2}, "Probe": {probe1, probe2}} {
		if !slices.Equal(keys(pair[0]), keys(pair[1])) {
			t.Fatalf("%s differs under different seeds:\n%v\n%v", name, pair[0], pair[1])
		}
	}
}

func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// FuzzTupleSet decodes the input into operations over a small value
// alphabet and checks the set against the string-keyed oracle, under the
// real hash and under a 2-bucket hash that makes every chain long. The first
// byte fixes the set's arity, 0 to 3; an operation on a tuple of another
// arity must find nothing and store nothing.
func FuzzTupleSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("\x00\x00\x00\x01\x00\x00\x07\x07\x01\x02\x03\x07\x07\x07"))
	f.Add([]byte{3, 0, 1, 3, 1, 0, 7, 3, 0, 1, 7, 7, 2, 0, 1})
	f.Add([]byte{1, 0, 1, 3, 0, 0, 0, 1, 7, 0, 1, 0, 2, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		setArity := int(data[0] % 4)
		plain, bucketed := MakeTupleSet(setArity), MakeTupleSet(setArity)
		bucketed.hashFn = func(tp Tuple) uint64 {
			if len(tp) == 0 {
				return 0
			}
			return uint64(tp[0].Kind()) & 1
		}
		for _, s := range []*TupleSet{&plain, &bucketed} {
			var o setOracle
			for i := 1; i+1 < len(data); {
				op, arity := data[i]%8, int(data[i+1]%4)
				i += 2
				tp := make(Tuple, 0, arity)
				for ; arity > 0 && i < len(data); arity-- {
					tp = append(tp, adversarialValues[int(data[i])%len(adversarialValues)])
					i++
				}
				if op < 5 {
					if got, want := s.Add(tp), len(tp) == setArity && o.add(tp); got != want {
						t.Fatalf("Add(%v) = %v, oracle says %v", tp, got, want)
					}
				} else if got, want := s.Has(tp), o.idx[tp.Key()]; got != want {
					t.Fatalf("Has(%v) = %v, oracle says %v", tp, got, want)
				}
			}
			checkAgainstOracle(t, s, &o)
		}
	})
}

// TestProbeMatchesScanRandom: over random relations and random probes, Probe
// and AppendProbe return exactly what a linear scan of the log returns, in
// log order.
func TestProbeMatchesScanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	for trial := 0; trial < 200; trial++ {
		arity := 1 + rng.Intn(3)
		r := NewRelation(MakeSchema("p", arity))
		for i, n := 0, rng.Intn(60); i < n; i++ {
			tp := make(Tuple, arity)
			for j := range tp {
				tp[j] = adversarialValues[rng.Intn(8)]
			}
			if _, err := r.Insert(tp); err != nil {
				t.Fatal(err)
			}
			if i == n/2 {
				r.probe([]int{0}, []Value{S("1")}) // build the index mid-way: later inserts maintain it
			}
		}
		var pos []int
		var vals []Value
		for p := 0; p < arity; p++ {
			if rng.Intn(2) == 0 {
				pos = append(pos, p)
				vals = append(vals, adversarialValues[rng.Intn(8)])
			}
		}
		want := scanProbe(r, pos, vals)
		prefix := []Tuple{{S("kept")}}
		for name, got := range map[string][]Tuple{
			"Probe":       r.probe(pos, vals),
			"AppendProbe": r.AppendProbe(prefix, pos, vals)[1:],
		} {
			if !sameTuples(got, want) {
				t.Fatalf("trial %d: %s(%v,%v) = %v, scan says %v", trial, name, pos, vals, got, want)
			}
		}
	}
}

// TestTupleSetFootprint: a member costs its row and its share of the table,
// nothing per member besides. Summed over the capacity of every field, a
// 10 000-row 3-ary set holds at most 20 bytes per member (about 18.9: 12.3
// the row chunks, 6.6 the table); a log of one slice header per member put it
// near 100, 16-byte values near 60, a table grown at half load near 38, and
// 8-byte values near 31.
func TestTupleSetFootprint(t *testing.T) {
	const n = 10000
	s := MakeTupleSet(3)
	for i := 0; i < n; i++ {
		s.Add(Tuple{S("k" + strconv.Itoa(i)), I(int64(i)), S("c")})
	}
	bytes := cap(s.chunks)*int(unsafe.Sizeof([]Value(nil))) + cap(s.table)*int(unsafe.Sizeof(uint32(0)))
	for _, ch := range s.chunks {
		bytes += cap(ch) * int(unsafe.Sizeof(Value{}))
	}
	if per := float64(bytes) / n; per > 20 {
		t.Errorf("%d 3-ary members hold %d bytes, %.1f per member; want at most 20", n, bytes, per)
	}
}

// TestViewsSurviveGrowthAcrossChunks: views taken from At, Since and All
// while the set is a few rows in its first chunk, and again at chunk
// boundaries, read the same after 100 000 further inserts — through every
// copy of the first chunk and across many chunk boundaries.
func TestViewsSurviveGrowthAcrossChunks(t *testing.T) {
	const more = 100000
	r := NewRelation(MakeSchema("p", 3))
	tuple := func(i int) Tuple { return Tuple{S("k"), I(int64(i)), I(int64(-i))} }
	type view struct {
		name string
		from int // the position the view's first tuple was inserted at
		ts   []Tuple
	}
	var views []view
	take := func() {
		n := r.Len()
		since, _ := r.Since(uint64(n / 2))
		views = append(views,
			view{"At(" + strconv.Itoa(n-1) + ")", n - 1, []Tuple{r.At(n - 1)}},
			view{"Since(" + strconv.Itoa(n/2) + ")", n / 2, since},
			view{"All at " + strconv.Itoa(n), 0, r.All()})
	}
	boundary := r.set.mask + 1
	for i := 0; i < 3+more; i++ {
		mustInsert(t, r, tuple(i))
		if n := r.Len(); n <= 3 || n%boundary == 0 && n <= 8*boundary || n == boundary+1 {
			take()
		}
	}
	if len(r.set.chunks) < 100 {
		t.Fatalf("%d rows fill %d chunks; want the views to cross many chunk boundaries", r.Len(), len(r.set.chunks))
	}
	for _, v := range views {
		for i, tp := range v.ts {
			if !tp.Equal(tuple(v.from+i)) || cap(tp) != 3 {
				t.Fatalf("%s: view %d reads %v (cap %d) after the growth, want %v", v.name, i, tp, cap(tp), tuple(v.from+i))
			}
		}
	}
}
