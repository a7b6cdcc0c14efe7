package cq

import (
	"fmt"

	"repro/internal/relalg"
)

// Conjunctive-query containment via the homomorphism theorem (Chandra &
// Merlin): Q1 ⊆ Q2 iff there is a homomorphism from Q2's canonical database
// into Q1's frozen body mapping Q2's output terms onto Q1's. The network
// analyser uses it to detect redundant coordination rules (a rule whose
// body+head is subsumed by another rule between the same nodes imports
// nothing new).
//
// Built-ins are handled conservatively: containment is only claimed when
// Q2 has no built-ins or Q2's built-ins are a syntactic subset of Q1's, so
// a "contained" verdict is always sound while some true containments are
// missed. That is the right trade-off for an advisory analysis.

// freezeVar renders a variable as a frozen constant for the canonical
// database.
func freezeVar(v string) relalg.Value { return relalg.S("\x01frz_" + v) }

func freezeTerm(t Term) relalg.Value {
	if t.IsVar {
		return freezeVar(t.Var)
	}
	return t.Val
}

// Contained reports whether q1 ⊆ q2 when both are evaluated over the same
// database and projected onto out1/out2 respectively (the output column
// lists must have equal length; position i of q1's output corresponds to
// position i of q2's). The check is sound and, for built-in-free queries,
// complete.
func Contained(q1 Conjunction, out1 []string, q2 Conjunction, out2 []string) (bool, error) {
	if len(out1) != len(out2) {
		return false, fmt.Errorf("cq: output arity mismatch %d vs %d", len(out1), len(out2))
	}
	// Conservative built-in handling: q2's built-ins must appear in q1
	// syntactically (after variable mapping we cannot evaluate them on
	// frozen constants, so require textual coverage under the eventual
	// homomorphism — checked post-hoc below).
	// Build q1's canonical database.
	canon := map[string][]relalg.Tuple{}
	for _, a := range q1.Atoms {
		t := make(relalg.Tuple, len(a.Terms))
		for i, term := range a.Terms {
			t[i] = freezeTerm(term)
		}
		canon[a.Rel] = append(canon[a.Rel], t)
	}
	// The homomorphism must map q2's output terms onto q1's frozen outputs.
	seed := Binding{}
	for i, v2 := range out2 {
		target := freezeVar(out1[i])
		if prev, ok := seed[v2]; ok && prev != target {
			return false, nil // q2 repeats an output var that q1 does not
		}
		seed[v2] = target
	}
	hom, found := findHomomorphism(q2.Atoms, canon, seed)
	if !found {
		return false, nil
	}
	// Built-ins of q2 must be implied; conservatively require that the
	// image of each q2 built-in appears among q1's built-ins (or compares
	// two identical terms for =).
	for _, b2 := range q2.Builtins {
		if !builtinImplied(b2, hom, q1) {
			return false, nil
		}
	}
	return true, nil
}

// findHomomorphism searches for a mapping of atoms into the canonical
// database extending seed.
func findHomomorphism(atoms []Atom, canon map[string][]relalg.Tuple, seed Binding) (Binding, bool) {
	var rec func(i int, b Binding) (Binding, bool)
	rec = func(i int, b Binding) (Binding, bool) {
		if i == len(atoms) {
			return b, true
		}
		a := atoms[i]
		for _, tuple := range canon[a.Rel] {
			if nb, ok := match(a, tuple, b); ok {
				if res, done := rec(i+1, nb); done {
					return res, true
				}
			}
		}
		return nil, false
	}
	return rec(0, seed)
}

// match unifies the atom with a tuple under binding b, returning the extended
// binding. Handles repeated variables within the atom.
func match(atom Atom, tuple relalg.Tuple, b Binding) (Binding, bool) {
	if len(tuple) != len(atom.Terms) {
		return nil, false
	}
	nb := b.Clone()
	for i, t := range atom.Terms {
		if !t.IsVar {
			if !t.Val.Equal(tuple[i]) {
				return nil, false
			}
			continue
		}
		if v, ok := nb[t.Var]; ok {
			if !v.Equal(tuple[i]) {
				return nil, false
			}
			continue
		}
		nb[t.Var] = tuple[i]
	}
	return nb, true
}

// builtinImplied conservatively checks that b2's image under hom is implied
// by q1: either it is a trivially true equality, or some q1 built-in has the
// same operator and the same frozen/constant operands.
func builtinImplied(b2 Builtin, hom Binding, q1 Conjunction) bool {
	img := func(t Term) (relalg.Value, bool) {
		if !t.IsVar {
			return t.Val, true
		}
		v, ok := hom[t.Var]
		return v, ok
	}
	l2, okL := img(b2.L)
	r2, okR := img(b2.R)
	if !okL || !okR {
		return false
	}
	if b2.Op == OpEQ && l2 == r2 {
		return true
	}
	// Constant-only built-ins evaluate directly.
	if !isFrozen(l2) && !isFrozen(r2) {
		holds, ok := (Builtin{Op: b2.Op, L: C(l2), R: C(r2)}).Eval(Binding{})
		return ok && holds
	}
	for _, b1 := range q1.Builtins {
		l1 := freezeTerm(b1.L)
		r1 := freezeTerm(b1.R)
		if b1.Op == b2.Op && l1 == l2 && r1 == r2 {
			return true
		}
		// Symmetric operators match either way round.
		if (b1.Op == OpEQ || b1.Op == OpNEQ) && b1.Op == b2.Op && l1 == r2 && r1 == l2 {
			return true
		}
	}
	return false
}

func isFrozen(v relalg.Value) bool {
	return v.Kind() == relalg.KindString && len(v.Str()) > 0 && v.Str()[0] == '\x01'
}
