package cq

import (
	"testing"

	"repro/internal/relalg"
)

// TestSingleAtomShortCircuitMatchesGeneralPath: a conjunction of one atom and
// no built-in is finished by the seed loop itself, which writes each match's
// projection straight into the result set. A trivially true built-in (V = V)
// forces the same atom through the general path — rows, the join driver,
// ProjectInto — and both must return the same tuples in the same order, for
// Eval and for EvalDelta: over constants, a repeated variable, a delta tuple
// of the wrong arity, a relation of the wrong arity, a missing relation, and
// projections that drop columns (duplicates must collapse) or all of them.
func TestSingleAtomShortCircuitMatchesGeneralPath(t *testing.T) {
	a, b, c := relalg.S("a"), relalg.S("b"), relalg.S("c")
	n := relalg.Null("d1|r|V|2:sa")
	e2 := relalg.NewRelation(relalg.MakeSchema("e", 2))
	for _, tp := range []relalg.Tuple{{a, b}, {a, a}, {b, a}, {a, c}, {c, c}, {n, a}, {a, n}, {n, n}, {b, c}} {
		if _, err := e2.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	e3 := relalg.NewRelation(relalg.MakeSchema("t", 3))
	for _, tp := range []relalg.Tuple{{a, b, a}, {a, b, c}, {c, b, c}, {c, a, c}, {n, b, n}, {relalg.I(1), b, relalg.I(1)}} {
		if _, err := e3.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	src := MapSource{"e": e2, "t": e3}
	// The delta holds a suffix of each log plus one tuple of the wrong arity.
	delta := map[string][]relalg.Tuple{
		"e": append(append([]relalg.Tuple{}, e2.All()[3:]...), relalg.Tuple{a, b, c}),
		"t": append([]relalg.Tuple{{a, b}}, e3.All()[1:]...),
	}
	cases := []struct {
		atom string
		v    string // a variable of the atom, for the trivially true built-in
		outs [][]string
	}{
		{"e(X,Y)", "X", [][]string{{"X", "Y"}, {"Y", "X"}, {"X"}, {"Y"}, {}}},
		{"e('a',Y)", "Y", [][]string{{"Y"}, {}}},
		{"e(X,'a')", "X", [][]string{{"X"}}},
		{"e(X,X)", "X", [][]string{{"X"}, {"X", "X"}}},
		{"t(X,'b',X)", "X", [][]string{{"X"}}},
		{"t(X,Y,Z)", "Z", [][]string{{"Z", "X"}, {"Y"}}},
		{"t(X,Y)", "X", [][]string{{"X"}}},      // the relation is ternary: nothing matches
		{"e(X,Y,Z)", "X", [][]string{{"X"}}},    // only the delta's stray 3-tuple has this arity, and the relation does not
		{"absent(X,Y)", "X", [][]string{{"X"}}}, // no such relation
	}
	same := func(got, want []relalg.Tuple) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				return false
			}
		}
		return true
	}
	for _, tc := range cases {
		direct, err := ParseConjunction(tc.atom)
		if err != nil {
			t.Fatal(err)
		}
		general, err := ParseConjunction(tc.atom + ", " + tc.v + " = " + tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if e := compile(src, direct); !e.direct() {
			t.Fatalf("%s: not taken as direct", tc.atom)
		}
		if e := compile(src, general); e.direct() {
			t.Fatalf("%s with a built-in: taken as direct", tc.atom)
		}
		for _, out := range tc.outs {
			got, err1 := Eval(src, direct, out)
			want, err2 := Eval(src, general, out)
			if err1 != nil || err2 != nil || !same(got, want) {
				t.Errorf("Eval %s -> %v: direct %v (%v), general %v (%v)", tc.atom, out, got, err1, want, err2)
			}
			got, err1 = EvalDelta(src, direct, out, delta)
			want, err2 = EvalDelta(src, general, out, delta)
			if err1 != nil || err2 != nil || !same(got, want) {
				t.Errorf("EvalDelta %s -> %v: direct %v (%v), general %v (%v)", tc.atom, out, got, err1, want, err2)
			}
		}
	}
	// Dropping a column collapses duplicates, in first-derivation order.
	xs, _ := ParseConjunction("e(X,Y)")
	got, err := Eval(src, xs, []string{"X"})
	if want := []relalg.Tuple{{a}, {b}, {c}, {n}}; err != nil || !same(got, want) {
		t.Errorf("Eval e(X,Y) -> [X] = %v (%v), want %v", got, err, want)
	}
	// An output variable the atom does not bind is still an error.
	if _, err := Eval(src, xs, []string{"Q"}); err == nil {
		t.Error("Eval with an unbound output variable succeeded")
	}
	if _, err := EvalDelta(src, xs, []string{"Q"}, delta); err == nil {
		t.Error("EvalDelta with an unbound output variable succeeded")
	}
}
