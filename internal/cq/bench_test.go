package cq

import (
	"fmt"
	"testing"

	"repro/internal/relalg"
)

func benchRelation(name string, arity, rows int) *relalg.Relation {
	r := relalg.NewRelation(relalg.MakeSchema(name, arity))
	for i := 0; i < rows; i++ {
		t := make(relalg.Tuple, arity)
		for j := 0; j < arity; j++ {
			t[j] = relalg.S(fmt.Sprintf("v%d", (i+j*37)%rows))
		}
		_, _ = r.Insert(t)
	}
	return r
}

// BenchmarkEvalSingleAtom measures a full scan with projection: the one-atom
// short-circuit, one result-set insert per tuple and no row.
func BenchmarkEvalSingleAtom(b *testing.B) {
	src := MapSource{"e": benchRelation("e", 2, 1000)}
	c, _ := ParseConjunction("e(X,Y)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got, err := Eval(src, c, []string{"X"}); err != nil || len(got) != 1000 {
			b.Fatalf("%d tuples, want 1000 (%v)", len(got), err)
		}
	}
}

// BenchmarkEvalTwoWayJoin measures the pipelined hash join on a self-join.
func BenchmarkEvalTwoWayJoin(b *testing.B) {
	src := MapSource{"e": benchRelation("e", 2, 1000)}
	c, _ := ParseConjunction("e(X,Y), e(Y,Z)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(src, c, []string{"X", "Z"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalJoinWithBuiltin adds a comparison filter to the join.
func BenchmarkEvalJoinWithBuiltin(b *testing.B) {
	src := MapSource{"e": benchRelation("e", 2, 1000)}
	c, _ := ParseConjunction("e(X,Y), e(Y,Z), X <> Z")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(src, c, []string{"X", "Z"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalDeltaTwoWayJoin measures the semi-naive path: a 10-tuple
// delta seeded against the full 1000-tuple extent. Compare with
// BenchmarkEvalTwoWayJoin, which re-evaluates everything.
func BenchmarkEvalDeltaTwoWayJoin(b *testing.B) {
	rel := benchRelation("e", 2, 1000)
	src := MapSource{"e": rel}
	c, _ := ParseConjunction("e(X,Y), e(Y,Z)")
	delta := map[string][]relalg.Tuple{"e": rel.All()[990:]}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EvalDelta(src, c, []string{"X", "Z"}, delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalDeltaSingleAtom is the degenerate case: the delta projects
// straight through, no joins (what every push of a copy rule costs).
func BenchmarkEvalDeltaSingleAtom(b *testing.B) {
	rel := benchRelation("e", 2, 1000)
	src := MapSource{"e": rel}
	c, _ := ParseConjunction("e(X,Y)")
	delta := map[string][]relalg.Tuple{"e": rel.All()[990:]}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got, err := EvalDelta(src, c, []string{"X"}, delta); err != nil || len(got) != 10 {
			b.Fatalf("%d tuples, want 10 (%v)", len(got), err)
		}
	}
}

// deltaOrderingBench builds the asymmetric-delta workload for the seed
// ordering ablation: a self-join where one sizable delta makes every pass
// expensive under the naive expansion (each pass re-joins the other atom's
// delta too, deriving both-new combinations twice).
func deltaOrderingBench() (MapSource, Conjunction, map[string][]relalg.Tuple) {
	rel := benchRelation("e", 2, 2000)
	src := MapSource{"e": rel}
	c, _ := ParseConjunction("e(X,Y), e(Y,Z)")
	delta := map[string][]relalg.Tuple{"e": rel.All()[1600:]}
	return src, c, delta
}

// BenchmarkEvalDeltaAdaptiveOrder measures EvalDelta's adaptive seed
// ordering (smallest delta first, earlier seeds excluded from later passes).
func BenchmarkEvalDeltaAdaptiveOrder(b *testing.B) {
	src, c, delta := deltaOrderingBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := evalDelta(src, c, []string{"X", "Z"}, delta, true, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalDeltaBodyOrder is the ablation baseline: seed passes in body
// order with no old/new split (the pre-optimisation behaviour).
func BenchmarkEvalDeltaBodyOrder(b *testing.B) {
	src, c, delta := deltaOrderingBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := evalDelta(src, c, []string{"X", "Z"}, delta, false, false); err != nil {
			b.Fatal(err)
		}
	}
}

// prefixSharingBench builds the shared-prefix workload: a chain join whose
// delta tuples collide heavily on the join variable (50 distinct Y values
// over 400 delta rows), into an atom with a repeated variable — so most
// bindings present the same join prefix, each probe fans out to ten tuples
// of which nine fail unification, and the cache collapses all of that
// per-prefix work (including the failed-unify clones) into one computation.
func prefixSharingBench() (MapSource, Conjunction, map[string][]relalg.Tuple) {
	e := relalg.NewRelation(relalg.MakeSchema("e", 2))
	f := relalg.NewRelation(relalg.MakeSchema("f", 3))
	var delta []relalg.Tuple
	for i := 0; i < 2000; i++ {
		t := relalg.Tuple{relalg.S(fmt.Sprintf("x%d", i)), relalg.S(fmt.Sprintf("y%d", i%50))}
		_, _ = e.Insert(t)
		if i >= 1600 {
			delta = append(delta, t)
		}
	}
	for i := 0; i < 500; i++ {
		// Only every tenth row satisfies the Z=Z repeat.
		z2 := i
		if i%10 != 0 {
			z2 = i + 1
		}
		_, _ = f.Insert(relalg.Tuple{
			relalg.S(fmt.Sprintf("y%d", i%50)),
			relalg.S(fmt.Sprintf("z%d", i)),
			relalg.S(fmt.Sprintf("z%d", z2)),
		})
	}
	src := MapSource{"e": e, "f": f}
	c, _ := ParseConjunction("e(X,Y), f(Y,Z,Z)")
	return src, c, map[string][]relalg.Tuple{"e": delta}
}

// BenchmarkEvalDeltaPrefixShared measures EvalDelta with the joined-prefix
// cache: bindings agreeing on the probed join positions expand once.
func BenchmarkEvalDeltaPrefixShared(b *testing.B) {
	src, c, delta := prefixSharingBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := evalDelta(src, c, []string{"X", "Z"}, delta, true, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalDeltaPrefixUnshared is the ablation baseline: every binding
// probes and unifies for itself (the pre-optimisation behaviour).
func BenchmarkEvalDeltaPrefixUnshared(b *testing.B) {
	src, c, delta := prefixSharingBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := evalDelta(src, c, []string{"X", "Z"}, delta, true, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseConjunction measures the parser.
func BenchmarkParseConjunction(b *testing.B) {
	const src = "B:b(X,Y), B:b(Y,Z), C:c(Z, 'lit', 42), X <> Z, Y >= 1999"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseConjunction(src); err != nil {
			b.Fatal(err)
		}
	}
}
