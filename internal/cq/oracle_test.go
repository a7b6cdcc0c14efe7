package cq

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relalg"
)

// project extracts the values of the named variables as a tuple; missing
// variables yield an error.
func (b Binding) project(vars []string) (relalg.Tuple, error) {
	out := make(relalg.Tuple, len(vars))
	for i, v := range vars {
		val, ok := b[v]
		if !ok {
			return nil, fmt.Errorf("cq: unbound variable %s in projection", v)
		}
		out[i] = val
	}
	return out, nil
}

// naiveEval is an independent oracle: enumerate every combination of tuples
// for the atoms (cartesian product), attempt unification, filter through the
// built-ins, and project. Exponential and obviously correct.
func naiveEval(src Source, c Conjunction, outVars []string) ([]relalg.Tuple, error) {
	bindings := []Binding{{}}
	for _, atom := range c.Atoms {
		rel := src.Rel(atom.Rel)
		var next []Binding
		if rel == nil {
			return nil, nil
		}
		for _, b := range bindings {
			for _, tuple := range rel.All() {
				if nb, ok := match(atom, tuple, b); ok {
					next = append(next, nb)
				}
			}
		}
		bindings = next
	}
	var kept []Binding
	for _, b := range bindings {
		ok := true
		for _, bl := range c.Builtins {
			holds, defined := bl.Eval(b)
			if !defined || !holds {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, b)
		}
	}
	seen := map[string]bool{}
	var out []relalg.Tuple
	for _, b := range kept {
		t, err := b.project(outVars)
		if err != nil {
			return nil, err
		}
		if !seen[t.Key()] {
			seen[t.Key()] = true
			out = append(out, t)
		}
	}
	return out, nil
}

// naiveEvalDelta is the map-binding reference for EvalDelta's contract: the
// distinct projections of the satisfying bindings that bind at least one atom
// to a tuple of its relation's delta. It enumerates bindings the way
// naiveEval does, carrying a used-a-delta-tuple flag beside each.
func naiveEvalDelta(src Source, c Conjunction, outVars []string, delta map[string][]relalg.Tuple) (map[string]bool, error) {
	type flagged struct {
		b     Binding
		fresh bool
	}
	inDelta := map[string]map[string]bool{}
	for rel, ts := range delta {
		inDelta[rel] = tupleSet(ts)
	}
	bindings := []flagged{{b: Binding{}}}
	for _, atom := range c.Atoms {
		rel := src.Rel(atom.Rel)
		if rel == nil {
			return nil, nil
		}
		var next []flagged
		for _, fb := range bindings {
			for _, tuple := range rel.All() {
				if nb, ok := match(atom, tuple, fb.b); ok {
					next = append(next, flagged{b: nb, fresh: fb.fresh || inDelta[atom.Rel][tuple.Key()]})
				}
			}
		}
		bindings = next
	}
	out := map[string]bool{}
bindings:
	for _, fb := range bindings {
		if !fb.fresh {
			continue
		}
		for _, bl := range c.Builtins {
			if holds, defined := bl.Eval(fb.b); !defined || !holds {
				continue bindings
			}
		}
		t, err := fb.b.project(outVars)
		if err != nil {
			return nil, err
		}
		out[t.Key()] = true
	}
	return out, nil
}

// randomConjunction builds a random 1–3 atom conjunction over relations
// p/2, q/2, r/1 with variables X,Y,Z,W plus occasional constants and a
// random builtin.
func randomConjunction(rng *rand.Rand) Conjunction {
	vars := []string{"X", "Y", "Z", "W"}
	rels := []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 2}, {"r", 1}}
	var c Conjunction
	nAtoms := 1 + rng.Intn(3)
	for i := 0; i < nAtoms; i++ {
		rel := rels[rng.Intn(len(rels))]
		terms := make([]Term, rel.arity)
		for j := range terms {
			if rng.Float64() < 0.8 {
				terms[j] = V(vars[rng.Intn(len(vars))])
			} else {
				terms[j] = C(relalg.S(fmt.Sprintf("c%d", rng.Intn(4))))
			}
		}
		c.Atoms = append(c.Atoms, Atom{Rel: rel.name, Terms: terms})
	}
	if rng.Float64() < 0.6 {
		av := c.AtomVars()
		var names []string
		for v := range av {
			names = append(names, v)
		}
		if len(names) > 0 {
			ops := []Op{OpEQ, OpNEQ, OpLT, OpLE, OpGT, OpGE}
			l := V(names[rng.Intn(len(names))])
			var r Term
			if rng.Float64() < 0.5 {
				r = V(names[rng.Intn(len(names))])
			} else {
				r = C(relalg.S(fmt.Sprintf("c%d", rng.Intn(4))))
			}
			c.Builtins = append(c.Builtins, Builtin{Op: ops[rng.Intn(len(ops))], L: l, R: r})
		}
	}
	return c
}

func randomSource(rng *rand.Rand) MapSource {
	mk := func(name string, arity, rows int) *relalg.Relation {
		rel := relalg.NewRelation(relalg.MakeSchema(name, arity))
		for i := 0; i < rows; i++ {
			t := make(relalg.Tuple, arity)
			for j := range t {
				t[j] = relalg.S(fmt.Sprintf("c%d", rng.Intn(4)))
			}
			_, _ = rel.Insert(t)
		}
		return rel
	}
	return MapSource{
		"p": mk("p", 2, rng.Intn(8)),
		"q": mk("q", 2, rng.Intn(8)),
		"r": mk("r", 1, rng.Intn(5)),
	}
}

// TestEvalAgainstNaiveOracle cross-checks the pipelined hash-join evaluator
// against the brute-force oracle over hundreds of random queries and
// databases.
func TestEvalAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20040301))
	for trial := 0; trial < 400; trial++ {
		src := randomSource(rng)
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
		got, err := Eval(src, c, outVars)
		if err != nil {
			t.Fatalf("trial %d: Eval(%q): %v", trial, c.String(), err)
		}
		want, err := naiveEval(src, c, outVars)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %q over %v: got %d rows, oracle %d\n got: %v\nwant: %v",
				trial, c.String(), outVars, len(got), len(want), got, want)
		}
		wantKeys := map[string]bool{}
		for _, w := range want {
			wantKeys[w.Key()] = true
		}
		for _, g := range got {
			if !wantKeys[g.Key()] {
				t.Fatalf("trial %d: %q: spurious row %v", trial, c.String(), g)
			}
		}
	}
}
