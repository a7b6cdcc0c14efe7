package cq

import (
	"fmt"
	"math/rand"
	"testing"
)

func mustParse(t *testing.T, s string) Conjunction {
	t.Helper()
	c, err := ParseConjunction(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContainedBasics(t *testing.T) {
	cases := []struct {
		q1   string
		out1 []string
		q2   string
		out2 []string
		want bool
	}{
		// Identical queries.
		{"e(X,Y)", []string{"X"}, "e(A,B)", []string{"A"}, true},
		// A more restrictive join is contained in the single atom.
		{"e(X,Y), e(Y,Z)", []string{"X"}, "e(A,B)", []string{"A"}, true},
		// ... but not vice versa.
		{"e(A,B)", []string{"A"}, "e(X,Y), e(Y,Z)", []string{"X"}, false},
		// Repeated variable is more restrictive.
		{"e(X,X)", []string{"X"}, "e(A,B)", []string{"A"}, true},
		{"e(A,B)", []string{"A"}, "e(X,X)", []string{"X"}, false},
		// Constants restrict.
		{"e(X, c0)", []string{"X"}, "e(A,B)", []string{"A"}, true},
		{"e(A,B)", []string{"A"}, "e(X, c0)", []string{"X"}, false},
		// Different relations are incomparable.
		{"e(X,Y)", []string{"X"}, "f(A,B)", []string{"A"}, false},
		// Output positions matter.
		{"e(X,Y)", []string{"X"}, "e(A,B)", []string{"B"}, false},
		// Built-ins: q1 with extra filter is contained in plain q2.
		{"e(X,Y), X <> Y", []string{"X"}, "e(A,B)", []string{"A"}, true},
		// q2 with a filter does not contain plain q1.
		{"e(X,Y)", []string{"X"}, "e(A,B), A <> B", []string{"A"}, false},
		// Same filter on both sides.
		{"e(X,Y), X <> Y", []string{"X"}, "e(A,B), A <> B", []string{"A"}, true},
	}
	for _, c := range cases {
		got, err := Contained(mustParse(t, c.q1), c.out1, mustParse(t, c.q2), c.out2)
		if err != nil {
			t.Fatalf("Contained(%q, %q): %v", c.q1, c.q2, err)
		}
		if got != c.want {
			t.Errorf("Contained(%q ⊆ %q) = %v, want %v", c.q1, c.q2, got, c.want)
		}
	}
}

func TestContainedArityMismatch(t *testing.T) {
	if _, err := Contained(mustParse(t, "e(X,Y)"), []string{"X", "Y"}, mustParse(t, "e(A,B)"), []string{"A"}); err == nil {
		t.Error("output arity mismatch must error")
	}
}

// TestContainmentSemanticSoundness: whenever Contained says q1 ⊆ q2, every
// database must satisfy eval(q1) ⊆ eval(q2). Random queries + random
// databases.
func TestContainmentSemanticSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		q1 := randomConjunction(rng)
		q2 := randomConjunction(rng)
		av1, av2 := q1.AtomVars(), q2.AtomVars()
		var out1, out2 []string
		for _, v := range []string{"X", "Y"} {
			if av1[v] {
				out1 = append(out1, v)
			}
		}
		for _, v := range []string{"X", "Y"} {
			if av2[v] {
				out2 = append(out2, v)
			}
		}
		if len(out1) == 0 || len(out1) != len(out2) {
			continue
		}
		contained, err := Contained(q1, out1, q2, out2)
		if err != nil || !contained {
			continue
		}
		checked++
		// Verify on random databases.
		for dbTrial := 0; dbTrial < 5; dbTrial++ {
			src := randomSource(rng)
			r1, err := Eval(src, q1, out1)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Eval(src, q2, out2)
			if err != nil {
				t.Fatal(err)
			}
			have := map[string]bool{}
			for _, tup := range r2 {
				have[tup.Key()] = true
			}
			for _, tup := range r1 {
				if !have[tup.Key()] {
					t.Fatalf("claimed %q ⊆ %q but tuple %v of q1 missing from q2\nq1=%v\nq2=%v",
						q1.String(), q2.String(), tup, r1, r2)
				}
			}
		}
	}
	if checked < 10 {
		t.Logf("note: only %d containments found across trials", checked)
	}
	_ = fmt.Sprint
}
