package relalg_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cq"
	"repro/internal/relalg"
)

// TestEvalOrderIndependentOfHashSeed: the same relation logs give the same
// result order from cq.Eval and cq.EvalDelta under two hash seeds, so nothing
// a peer ships depends on the process that computed it. The join goes through
// every hash-keyed structure on the path: the result TupleSet, the old/new
// exclusion sets and the joined-prefix cache.
func TestEvalOrderIndependentOfHashSeed(t *testing.T) {
	conj, err := cq.ParseConjunction("p(X,Y), q(Y,Z), p(Z,W)")
	if err != nil {
		t.Fatal(err)
	}
	out := []string{"X", "W"}
	run := func() (full, delta []string) {
		defer relalg.Reseed()()
		rng := rand.New(rand.NewSource(11))
		src := cq.MapSource{
			"p": relalg.NewRelation(relalg.MakeSchema("p", 2)),
			"q": relalg.NewRelation(relalg.MakeSchema("q", 2)),
		}
		marks := map[string]int{}
		for i := 0; i < 600; i++ {
			if i == 400 {
				marks["p"], marks["q"] = src["p"].Len(), src["q"].Len()
			}
			name := []string{"p", "q"}[rng.Intn(2)]
			tp := relalg.Tuple{relalg.S(fmt.Sprintf("v%d", rng.Intn(25))), relalg.S(fmt.Sprintf("v%d", rng.Intn(25)))}
			if _, err := src[name].Insert(tp); err != nil {
				t.Fatal(err)
			}
		}
		since := map[string][]relalg.Tuple{"p": src["p"].All()[marks["p"]:], "q": src["q"].All()[marks["q"]:]}
		keys := func(ts []relalg.Tuple, err error) (out []string) {
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range ts {
				out = append(out, tp.Key())
			}
			return out
		}
		full, delta = keys(cq.Eval(src, conj, out)), keys(cq.EvalDelta(src, conj, out, since))
		if again := keys(cq.Eval(src, conj, out)); !slices.Equal(full, again) {
			t.Fatal("two Evals of one database disagree on the order")
		}
		if again := keys(cq.EvalDelta(src, conj, out, since)); !slices.Equal(delta, again) {
			t.Fatal("two EvalDeltas of one database disagree on the order")
		}
		return full, delta
	}
	full1, delta1 := run()
	full2, delta2 := run()
	if len(full1) < 100 || len(delta1) < 20 {
		t.Fatalf("degenerate case: %d rows, %d delta rows", len(full1), len(delta1))
	}
	if !slices.Equal(full1, full2) {
		t.Error("Eval order depends on the hash seed")
	}
	if !slices.Equal(delta1, delta2) {
		t.Error("EvalDelta order depends on the hash seed")
	}
}
