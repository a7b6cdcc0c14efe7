package cq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relalg"
)

func tupleSet(ts []relalg.Tuple) map[string]bool {
	out := make(map[string]bool, len(ts))
	for _, t := range ts {
		out[t.Key()] = true
	}
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestEvalDeltaAdaptiveMatchesBodyOrder: the adaptive seed ordering (smallest
// delta first, old/new split) must compute exactly the same projections as
// the straightforward body-order expansion, over random conjunctions, random
// databases and random delta splits — including repeated relations, repeated
// variables and constants.
func TestEvalDeltaAdaptiveMatchesBodyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < 200; trial++ {
		rels := map[string]*relalg.Relation{
			"p": relalg.NewRelation(relalg.MakeSchema("p", 2)),
			"q": relalg.NewRelation(relalg.MakeSchema("q", 2)),
			"r": relalg.NewRelation(relalg.MakeSchema("r", 1)),
		}
		delta := map[string][]relalg.Tuple{}
		for name, rel := range rels {
			arity := rel.Schema().Arity()
			total := 4 + rng.Intn(20)
			deltaFrom := rng.Intn(total + 1)
			for i := 0; i < total; i++ {
				tup := make(relalg.Tuple, arity)
				for j := range tup {
					tup[j] = relalg.S(fmt.Sprintf("v%d", rng.Intn(8)))
				}
				added, err := rel.Insert(tup)
				if err != nil {
					t.Fatal(err)
				}
				if added && i >= deltaFrom {
					delta[name] = append(delta[name], tup)
				}
			}
		}
		src := MapSource(rels)
		bodies := []struct {
			body string
			out  []string
		}{
			{"p(X,Y), q(Y,Z)", []string{"X", "Z"}},
			{"p(X,Y), p(Y,Z)", []string{"X", "Z"}},
			{"p(X,X), r(X)", []string{"X"}},
			{"p(X,Y), q(Y,Z), r(Z)", []string{"X", "Y", "Z"}},
			{"q(X,'v1'), p(X,Y)", []string{"Y"}},
		}
		pick := bodies[rng.Intn(len(bodies))]
		c, err := ParseConjunction(pick.body)
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := evalDelta(src, c, pick.out, delta, true, true)
		if err != nil {
			t.Fatal(err)
		}
		unshared, err := evalDelta(src, c, pick.out, delta, true, false)
		if err != nil {
			t.Fatal(err)
		}
		bodyOrder, err := evalDelta(src, c, pick.out, delta, false, false)
		if err != nil {
			t.Fatal(err)
		}
		// All three run on slot rows; the reference enumerates map bindings.
		ref, err := naiveEvalDelta(src, c, pick.out, delta)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string][]relalg.Tuple{"adaptive": adaptive, "unshared": unshared, "body-order": bodyOrder} {
			if got := tupleSet(res); len(got) != len(res) || !sameSet(got, ref) {
				t.Fatalf("trial %d %q: %s evalDelta = %v, map-binding reference says %v", trial, pick.body, name, res, ref)
			}
		}
		got, want := tupleSet(adaptive), tupleSet(bodyOrder)
		if len(got) != len(want) {
			t.Fatalf("trial %d %q: adaptive %d results, body-order %d", trial, pick.body, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d %q: body-order result %s missing from adaptive", trial, pick.body, k)
			}
		}
		// The joined-prefix cache must be invisible in the results: shared and
		// unshared expansion agree tuple for tuple.
		cached := tupleSet(unshared)
		if len(got) != len(cached) {
			t.Fatalf("trial %d %q: shared %d results, unshared %d", trial, pick.body, len(got), len(cached))
		}
		for k := range cached {
			if !got[k] {
				t.Fatalf("trial %d %q: unshared result %s missing from shared", trial, pick.body, k)
			}
		}
	}
}

// TestEvalDeltaAccumulatesToFullEval is the semi-naive oracle: over random
// conjunctions and randomised insertion histories, an initial full Eval plus
// the EvalDelta of every subsequent insertion batch must accumulate to
// exactly the full Eval of the final database — tuple for tuple, no more and
// no less.
func TestEvalDeltaAccumulatesToFullEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20040302))
	rels := []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 2}, {"r", 1}}
	for trial := 0; trial < 300; trial++ {
		c := randomConjunction(rng)
		av := c.AtomVars()
		var outVars []string
		for _, v := range []string{"X", "Y", "Z", "W"} {
			if av[v] && rng.Float64() < 0.7 {
				outVars = append(outVars, v)
			}
		}
		if len(outVars) == 0 {
			continue
		}

		src := MapSource{}
		for _, r := range rels {
			src[r.name] = relalg.NewRelation(relalg.MakeSchema(r.name, r.arity))
		}
		insertBatch := func() {
			for i, n := 0, rng.Intn(6); i < n; i++ {
				r := rels[rng.Intn(len(rels))]
				tp := make(relalg.Tuple, r.arity)
				for j := range tp {
					tp[j] = relalg.S(fmt.Sprintf("c%d", rng.Intn(4)))
				}
				_, _ = src[r.name].Insert(tp)
			}
		}

		// Initial state, evaluated fully; marks primed at the current seqs.
		insertBatch()
		marks := map[string]uint64{}
		for _, r := range rels {
			marks[r.name] = src[r.name].Seq()
		}
		full, err := Eval(src, c, outVars)
		if err != nil {
			t.Fatalf("trial %d: prime Eval(%q): %v", trial, c.String(), err)
		}
		acc := tupleSet(full)

		// Insertion history: delta-evaluate each batch and accumulate.
		for batch := 0; batch < 4; batch++ {
			insertBatch()
			delta := map[string][]relalg.Tuple{}
			for _, r := range rels {
				if dts, next := src[r.name].Since(marks[r.name]); len(dts) > 0 {
					delta[r.name] = dts
					marks[r.name] = next
				}
			}
			got, err := EvalDelta(src, c, outVars, delta)
			if err != nil {
				t.Fatalf("trial %d: EvalDelta(%q): %v", trial, c.String(), err)
			}
			ref, err := naiveEvalDelta(src, c, outVars, delta)
			if err != nil {
				t.Fatal(err)
			}
			if gotSet := tupleSet(got); len(gotSet) != len(got) || !sameSet(gotSet, ref) {
				t.Fatalf("trial %d: EvalDelta(%q) over %v = %v, map-binding reference says %v", trial, c.String(), outVars, got, ref)
			}
			for _, g := range got {
				acc[g.Key()] = true
			}
		}

		want, err := Eval(src, c, outVars)
		if err != nil {
			t.Fatalf("trial %d: final Eval(%q): %v", trial, c.String(), err)
		}
		wantSet := tupleSet(want)
		for k := range wantSet {
			if !acc[k] {
				t.Fatalf("trial %d: %q over %v: accumulated deltas miss row %s",
					trial, c.String(), outVars, k)
			}
		}
		for k := range acc {
			if !wantSet[k] {
				t.Fatalf("trial %d: %q over %v: accumulated deltas contain spurious row %s",
					trial, c.String(), outVars, k)
			}
		}
	}
}

// TestEvalDeltaEmptyAndUnknown covers the degenerate inputs: no delta, a
// delta for a relation the conjunction does not read, and an atom-free body.
func TestEvalDeltaEmptyAndUnknown(t *testing.T) {
	rel := relalg.NewRelation(relalg.MakeSchema("p", 2))
	_, _ = rel.Insert(relalg.Tuple{relalg.S("a"), relalg.S("b")})
	src := MapSource{"p": rel}
	c, err := ParseConjunction("p(X,Y)")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := EvalDelta(src, c, []string{"X"}, nil); err != nil || len(got) != 0 {
		t.Fatalf("nil delta: %v %v", got, err)
	}
	other := map[string][]relalg.Tuple{"zzz": {relalg.Tuple{relalg.S("x")}}}
	if got, err := EvalDelta(src, c, []string{"X"}, other); err != nil || len(got) != 0 {
		t.Fatalf("unrelated delta: %v %v", got, err)
	}
	if _, err := EvalDelta(src, c, []string{"Q"}, nil); err == nil {
		t.Fatal("unrestricted output variable must error")
	}
}
