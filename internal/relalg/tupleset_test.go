package relalg

import (
	"hash/maphash"
	"math/rand"
	"strings"
	"testing"
)

// adversarialValues are values whose renderings or payloads coincide while
// the values differ — the cases a sloppy identity would conflate.
var adversarialValues = []Value{
	S("1"), I(1), Null("1"),
	S(""), Null(""), I(0),
	S("a:b"), S("a"), S("b"), S(":"),
	S("\x00"), S("a\x00b"), Null("a\x00b"),
	S("2:s1"), S("s1"), S("i1"), S("n1"),
	I(-1), I(10), S("10"), S("-1"),
	Null("d1|r|V|" + strings.Repeat("3:sab", 40)),
	Null("d1|r|V|" + strings.Repeat("3:sab", 40) + "x"),
}

// randomAdversarialTuple draws arity 0–3 from adversarialValues, so tuples
// of differing arities with equal prefixes turn up often.
func randomAdversarialTuple(rng *rand.Rand) Tuple {
	t := make(Tuple, rng.Intn(4))
	for i := range t {
		t[i] = adversarialValues[rng.Intn(len(adversarialValues))]
	}
	return t
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
		if !u.Equal(o.order[i]) {
			t.Fatalf("All()[%d] = %v, oracle (insertion order) says %v", i, u, o.order[i])
		}
	}
}

// runOps drives a set and the oracle through the same random mix of Add,
// AddClone and Has.
func runOps(t *testing.T, s *TupleSet, rng *rand.Rand, steps int) {
	t.Helper()
	var o setOracle
	for i := 0; i < steps; i++ {
		tp := randomAdversarialTuple(rng)
		switch op := rng.Intn(8); {
		case op < 3:
			if got, want := s.Add(tp), o.add(tp); got != want {
				t.Fatalf("step %d: Add(%v) = %v, oracle says %v", i, tp, got, want)
			}
		case op < 5:
			scratch := tp.Clone()
			got, want := s.AddClone(scratch), o.add(tp)
			if got != want {
				t.Fatalf("step %d: AddClone(%v) = %v, oracle says %v", i, tp, got, want)
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
			checkAgainstOracle(t, s, &o)
		}
	}
	checkAgainstOracle(t, s, &o)
	for _, u := range o.order {
		if !s.Has(u) {
			t.Fatalf("member %v not found", u)
		}
	}
}

func TestTupleSetAgreesWithKeyOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		runOps(t, &TupleSet{}, rand.New(rand.NewSource(seed)), 400)
	}
}

// TestTupleSetVerifiesEqualityOnHit forces every tuple onto one hash: the
// set must still tell them apart.
func TestTupleSetVerifiesEqualityOnHit(t *testing.T) {
	constant := func(Tuple) uint64 { return 42 }
	for seed := int64(0); seed < 20; seed++ {
		runOps(t, &TupleSet{hashFn: constant}, rand.New(rand.NewSource(seed)), 300)
	}
	s := &TupleSet{hashFn: constant}
	a, b := Tuple{S("1")}, Tuple{I(1)}
	if !s.Add(a) || s.Has(b) || !s.Add(b) || s.Add(a) || s.Len() != 2 {
		t.Fatalf("colliding distinct tuples were conflated: %v", s.All())
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
	saved := hashSeed
	defer func() { hashSeed = saved }()
	run := func() (all, sorted []Tuple, probe []Tuple) {
		hashSeed = maphash.MakeSeed()
		rng := rand.New(rand.NewSource(7))
		r := NewRelation(MakeSchema("p", 2))
		for i := 0; i < 500; i++ {
			tp := Tuple{adversarialValues[rng.Intn(len(adversarialValues))], I(int64(rng.Intn(9)))}
			if _, err := r.Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		return r.All(), r.Sorted(), r.Probe([]int{1}, []Value{I(3)})
	}
	all1, sorted1, probe1 := run()
	all2, sorted2, probe2 := run()
	for name, pair := range map[string][2][]Tuple{"All": {all1, all2}, "Sorted": {sorted1, sorted2}, "Probe": {probe1, probe2}} {
		if !sameTuples(pair[0], pair[1]) {
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
// real hash and under a 2-bucket hash that makes every chain long.
func FuzzTupleSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("\x00\x00\x00\x01\x00\x00\x07\x07\x01\x02\x03\x07\x07\x07"))
	f.Add([]byte{3, 0, 1, 3, 1, 0, 7, 3, 0, 1, 7, 7, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range []*TupleSet{{}, {hashFn: func(tp Tuple) uint64 { return uint64(len(tp)) & 1 }}} {
			var o setOracle
			for i := 0; i+1 < len(data); {
				op, arity := data[i]%8, int(data[i+1]%4)
				i += 2
				tp := make(Tuple, 0, arity)
				for ; arity > 0 && i < len(data); arity-- {
					tp = append(tp, adversarialValues[int(data[i])%len(adversarialValues)])
					i++
				}
				if op < 5 {
					if got, want := s.Add(tp), o.add(tp); got != want {
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
				r.Probe([]int{0}, []Value{S("1")}) // build the index mid-way: later inserts maintain it
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
		prefix := []Tuple{{S("kept")}}
		for name, got := range map[string][]Tuple{
			"Probe":       r.Probe(pos, vals),
			"AppendProbe": r.AppendProbe(prefix, pos, vals)[1:],
		} {
			if !sameTuples(got, want) {
				t.Fatalf("trial %d: %s(%v,%v) = %v, scan says %v", trial, name, pos, vals, got, want)
			}
		}
	}
}
