package rules

import (
	"fmt"
	"testing"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// BenchmarkJoinPartsTwoSources measures the head node's local join of a
// two-source rule: 50 newly received tuples of one part against 1000
// accumulated tuples of the other, sharing one column.
func BenchmarkJoinPartsTwoSources(b *testing.B) {
	r, err := ParseRule("r: B:b(X,Y), C:c(Y,Z) -> A:a(X,Z)")
	if err != nil {
		b.Fatal(err)
	}
	parts := map[string]PartTuples{"B": {Cols: []string{"X", "Y"}}, "C": {Cols: []string{"Y", "Z"}}}
	fresh, full := parts["B"], parts["C"]
	for i := 0; i < 50; i++ {
		fresh.Tuples = append(fresh.Tuples, relalg.Tuple{relalg.S(fmt.Sprintf("x%d", i)), relalg.S(fmt.Sprintf("y%d", i%20))})
	}
	for i := 0; i < 1000; i++ {
		full.Tuples = append(full.Tuples, relalg.Tuple{relalg.S(fmt.Sprintf("y%d", i%200)), relalg.I(int64(i))})
	}
	parts["B"], parts["C"] = fresh, full
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := JoinParts(r, parts); len(got) != 250 {
			b.Fatalf("join produced %d bindings, want 250", len(got))
		}
	}
}

// BenchmarkApplyChaseExistential measures the chase step A6 with an
// existential head variable: 1000 bindings, each inventing one Skolem null
// and instantiating two head atoms, first into an empty database and then
// again as pure duplicates.
func BenchmarkApplyChaseExistential(b *testing.B) {
	r, err := ParseRule("r: B:b(X,Y) -> A:a(X,N), A:k(N,Y)")
	if err != nil {
		b.Fatal(err)
	}
	bindings := make([]relalg.Tuple, 1000)
	for i := range bindings {
		bindings[i] = relalg.Tuple{relalg.S(fmt.Sprintf("conf/edbt/%d", i)), relalg.I(int64(1990 + i%30))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := storage.New(relalg.MakeSchema("a", 2), relalg.MakeSchema("k", 2))
		for pass, want := range []int{2000, 0} {
			res, err := Apply(db, r, bindings, ApplyOptions{})
			if err != nil || res.Added != want {
				b.Fatalf("pass %d: added %d (want %d), err %v", pass, res.Added, want, err)
			}
		}
	}
}

// BenchmarkApplySingleSource measures the whole receiving side of a
// single-source rule: a 1 000-tuple answer read through the column
// permutation into the chase and inserted, once as a plain copy rule (head
// variables permuted) and once inventing a Skolem null per tuple; then the
// same answer again, as pure duplicates.
func BenchmarkApplySingleSource(b *testing.B) {
	for _, bc := range []struct {
		name, rule string
		schemas    []relalg.Schema
		added      int
	}{
		{"copy", "r: B:pub(K,T,Y) -> A:pub(K,T,Y)", []relalg.Schema{relalg.MakeSchema("pub", 3)}, 1000},
		{"existential", "r: B:pub(K,T,Y) -> A:rec(K,A,Y,V)", []relalg.Schema{relalg.MakeSchema("rec", 4)}, 1000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r, err := ParseRule(bc.rule)
			if err != nil {
				b.Fatal(err)
			}
			_, cols := r.BodyPart("B")
			part := PartTuples{Cols: cols, Tuples: make([]relalg.Tuple, 1000)}
			for i := range part.Tuples {
				record := map[string]relalg.Value{"K": relalg.S(fmt.Sprintf("conf/edbt/%d", i)), "T": relalg.S(fmt.Sprintf("title_%d", i)), "Y": relalg.I(int64(1990 + i%30))}
				for _, c := range cols {
					part.Tuples[i] = append(part.Tuples[i], record[c])
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := storage.New(bc.schemas...)
				for pass, want := range []int{bc.added, 0} {
					res, err := ApplyPart(db, r, part, ApplyOptions{})
					if err != nil || res.Added != want {
						b.Fatalf("pass %d: added %d (want %d), err %v", pass, res.Added, want, err)
					}
				}
			}
		})
	}
}
