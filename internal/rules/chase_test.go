package rules

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// applyOneByOne is the chase's reference: Apply per binding, so every head
// tuple of a binding is inserted before the next binding is read — the order
// of one insert per head atom.
func applyOneByOne(t *testing.T, db *storage.DB, r Rule, bindings []relalg.Tuple, opts ApplyOptions) ApplyResult {
	t.Helper()
	var sum ApplyResult
	for _, b := range bindings {
		res, err := Apply(db, r, []relalg.Tuple{b}, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum.Added += res.Added
		sum.Truncated += res.Truncated
	}
	return sum
}

// logOrder renders a relation's tuples in insertion (seq) order.
func logOrder(db *storage.DB, rel string) []string {
	var out []string
	for _, tp := range db.Rel(rel).All() {
		out = append(out, tp.String())
	}
	return out
}

// TestChaseKeepsARelationsDerivationOrder: two head atoms write one relation
// under InsertCore, where what is kept depends on the order of the inserts.
// Binding (p, q) derives a(p, N1) then a(q, p); binding (q, p) derives
// a(q, N2), which a(q, p) subsumes, then a(p, q). Inserting a relation's
// tuples in derivation order keeps three; inserting each head atom's tuples
// as a group would put a(q, N2) before a(q, p) and keep four.
func TestChaseKeepsARelationsDerivationOrder(t *testing.T) {
	r := parseRule(t, "r: B:b(X,Y) -> A:a(X,N), A:a(Y,X)")
	bindings := []relalg.Tuple{{relalg.S("p"), relalg.S("q")}, {relalg.S("q"), relalg.S("p")}}
	opts := ApplyOptions{Mode: storage.InsertCore}
	got, want := storage.New(relalg.MakeSchema("a", 2)), storage.New(relalg.MakeSchema("a", 2))
	res, err := Apply(got, r, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := applyOneByOne(t, want, r, bindings, opts)
	if res != ref || res.Added != 3 || !slices.Equal(logOrder(got, "a"), logOrder(want, "a")) {
		t.Fatalf("Apply = %+v, log %v; one binding at a time %+v, log %v; want 3 added", res, logOrder(got, "a"), ref, logOrder(want, "a"))
	}
}

// TestChaseAcrossTheFlushBound: a delta of more than two flush bounds, whose
// bindings repeat and subsume one another across three head atoms on two
// relations, leaves the database, logs and counts of one binding at a time,
// in both modes and through ApplyPart's permutation too.
func TestChaseAcrossTheFlushBound(t *testing.T) {
	r := parseRule(t, "r: B:b(X,Y) -> A:a(X,N), A:a(Y,X), A:k(N,Y)")
	rng := rand.New(rand.NewSource(3))
	bindings := make([]relalg.Tuple, 2*chaseFlush+37)
	for i := range bindings {
		bindings[i] = relalg.Tuple{relalg.S(fmt.Sprint("x", rng.Intn(60))), relalg.S(fmt.Sprint("x", rng.Intn(60)))}
	}
	// The part's columns are the export variables reversed.
	part := PartTuples{Cols: []string{"Y", "X"}}
	for _, b := range bindings {
		part.Tuples = append(part.Tuples, relalg.Tuple{b[1], b[0]})
	}
	for _, mode := range []storage.InsertMode{storage.InsertExact, storage.InsertCore} {
		opts := ApplyOptions{Mode: mode}
		schemas := []relalg.Schema{relalg.MakeSchema("a", 2), relalg.MakeSchema("k", 2)}
		want := storage.New(schemas...)
		ref := applyOneByOne(t, want, r, bindings, opts)
		for name, apply := range map[string]func(*storage.DB) (ApplyResult, error){
			"Apply":     func(db *storage.DB) (ApplyResult, error) { return Apply(db, r, bindings, opts) },
			"ApplyPart": func(db *storage.DB) (ApplyResult, error) { return ApplyPart(db, r, part, opts) },
		} {
			got := storage.New(schemas...)
			res, err := apply(got)
			if err != nil {
				t.Fatal(err)
			}
			if res != ref || ref.Added <= chaseFlush {
				t.Fatalf("mode %d %s: %+v, one binding at a time %+v (more than %d added expected)", mode, name, res, ref, chaseFlush)
			}
			for _, rel := range []string{"a", "k"} {
				if !slices.Equal(logOrder(got, rel), logOrder(want, rel)) {
					t.Fatalf("mode %d %s: %s log differs from one binding at a time", mode, name, rel)
				}
			}
		}
	}
}
