package rules

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/relalg"
	"repro/internal/storage"
)

// randomSingleSourceRule builds a rule with one body atom at B over k
// variables and one or two head atoms at A whose terms are drawn — permuted
// and with repeats — from the body variables, up to two existential variables
// and constants. It returns the rule and the schemas of its head relations.
func randomSingleSourceRule(rng *rand.Rand, id string) (Rule, []relalg.Schema) {
	k := 1 + rng.Intn(4)
	body := cq.Atom{Node: "B", Rel: "b"}
	pool := []cq.Term{cq.C(relalg.S("const")), cq.C(relalg.I(7))}
	for i := 0; i < k; i++ {
		v := cq.V("X" + strconv.Itoa(i))
		body.Terms = append(body.Terms, v)
		pool = append(pool, v, v) // universal variables twice as likely
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		pool = append(pool, cq.V("E"+strconv.Itoa(i)))
	}
	r := Rule{ID: id, HeadNode: "A", Body: cq.Conjunction{Atoms: []cq.Atom{body}}}
	var schemas []relalg.Schema
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		head := cq.Atom{Rel: "h" + strconv.Itoa(i)}
		for j, arity := 0, 1+rng.Intn(4); j < arity; j++ {
			head.Terms = append(head.Terms, pool[rng.Intn(len(pool))])
		}
		r.Head = append(r.Head, head)
		schemas = append(schemas, relalg.MakeSchema(head.Rel, len(head.Terms)))
	}
	return r, schemas
}

// TestApplyPartMatchesJoinThenApply: for a rule with one source, reading the
// part's tuples through the column permutation (ApplyPart) must leave exactly
// the database that joining, projecting and deduplicating them first
// (Apply(JoinParts)) leaves, and report the same result — over random rules,
// part tuples that are too short (skipped) or too long (the extra columns are
// ignored), nulls deep enough to hit the invention bound, and column lists
// that are sorted (what BodyPart sends), shuffled, or missing an export
// variable (nothing may be derived).
func TestApplyPartMatchesJoinThenApply(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	values := []relalg.Value{
		relalg.S("a"), relalg.S("b"), relalg.S("conf/edbt/04"), relalg.I(7), relalg.I(2004), relalg.S(""),
		relalg.Null("foreign"), relalg.Null("d2|r|V|2:sa"), relalg.Null("d3|r|V|2:sb"), relalg.Null("d4|r|V|2:sc"),
	}
	derived, truncated := 0, 0
	for trial := 0; trial < 400; trial++ {
		r, schemas := randomSingleSourceRule(rng, fmt.Sprintf("r%d", trial))
		_, cols := r.BodyPart("B")
		switch trial % 4 {
		case 1, 2:
			rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		case 3:
			if len(cols) > 0 {
				cols = cols[1:]
			}
		}
		// Distinct on the named columns, as a source's answer is.
		var distinct relalg.TupleSet
		var tuples []relalg.Tuple
		for i, n := 0, rng.Intn(40); i < n; i++ {
			width := len(cols)
			switch rng.Intn(8) {
			case 0:
				width = rng.Intn(len(cols) + 1) // short, unless there are no columns
			case 1:
				width++
			}
			tp := make(relalg.Tuple, width)
			for j := range tp {
				tp[j] = values[rng.Intn(len(values))]
			}
			if width < len(cols) || distinct.Add(tp[:len(cols)]) {
				tuples = append(tuples, tp)
			}
		}
		part := PartTuples{Cols: cols, Tuples: tuples}
		opts := ApplyOptions{Mode: storage.InsertMode(trial % 2)}

		viaPerm, viaJoin := storage.New(schemas...), storage.New(schemas...)
		got, err1 := ApplyPart(viaPerm, r, part, opts)
		want, err2 := Apply(viaJoin, r, JoinParts(r, map[string]PartTuples{"B": part}), opts)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d, %s: errors %v / %v", trial, r, err1, err2)
		}
		if got != want {
			t.Fatalf("trial %d, %s, cols %v: ApplyPart = %+v, Apply(JoinParts) = %+v", trial, r, cols, got, want)
		}
		if a, b := viaPerm.Dump(), viaJoin.Dump(); a != b {
			t.Fatalf("trial %d, %s, cols %v: databases differ\nApplyPart:\n%s\nApply(JoinParts):\n%s", trial, r, cols, a, b)
		}
		if trial%4 == 3 && len(r.ExportVars()) > 0 && got != (ApplyResult{}) {
			t.Fatalf("trial %d, %s: cols %v lack an export variable yet %+v was derived", trial, r, cols, got)
		}
		derived += got.Added
		truncated += got.Truncated
	}
	if derived == 0 || truncated == 0 {
		t.Fatalf("the trials derived %d tuples and truncated %d bindings: the generator exercises nothing", derived, truncated)
	}

	// The arity error of a binding stays an error; a part tuple of another
	// width never is one.
	r := parseRule(t, "r: B:b(X,Y) -> A:a(Y,X)")
	db := storage.New(relalg.MakeSchema("a", 2))
	if _, err := Apply(db, r, []relalg.Tuple{{relalg.S("x")}}, ApplyOptions{}); err == nil {
		t.Error("Apply accepted a 1-column binding over two export variables")
	}
	res, err := ApplyPart(db, r, PartTuples{Cols: []string{"X", "Y"}, Tuples: []relalg.Tuple{{relalg.S("x")}, {relalg.S("x"), relalg.S("y")}}}, ApplyOptions{})
	if err != nil || res.Added != 1 || db.Dump() != "a{(y, x)}\n" {
		t.Errorf("ApplyPart = %+v, %v, db %q", res, err, db.Dump())
	}
}

// TestApplyPartEmptyAllocatesNothing: nearly every answer of a clique update
// is an empty confirmation, and applying one must not build the export
// variables or the permutation it would never read.
func TestApplyPartEmptyAllocatesNothing(t *testing.T) {
	r := parseRule(t, "r: B:b(X,Y) -> A:a(Y,X,Z)")
	db := storage.New(relalg.MakeSchema("a", 3))
	empty := PartTuples{Cols: []string{"X", "Y"}}
	var res ApplyResult
	var err error
	if allocs := testing.AllocsPerRun(100, func() {
		res, err = ApplyPart(db, r, empty, ApplyOptions{})
	}); allocs != 0 || err != nil || res != (ApplyResult{}) {
		t.Errorf("ApplyPart(empty) = %+v, %v with %.0f allocations, want nothing and 0", res, err, allocs)
	}
}

// TestTruncatedCountsABindingOnce: part tuples that differ only in a column
// the rule does not export fold into one binding; past the depth bound that
// is one truncated binding, as Apply over the joined part counts it.
func TestTruncatedCountsABindingOnce(t *testing.T) {
	r := parseRule(t, "r: B:b(X,W) -> A:a(X,Y)")
	deep := relalg.Null("d4|deep")
	part := PartTuples{Cols: []string{"X", "W"}, Tuples: []relalg.Tuple{
		{deep, relalg.S("u")}, {relalg.S("shallow"), relalg.S("u")}, {deep, relalg.S("v")},
	}}
	got, err1 := ApplyPart(storage.New(relalg.MakeSchema("a", 2)), r, part, ApplyOptions{})
	want, err2 := Apply(storage.New(relalg.MakeSchema("a", 2)), r, JoinParts(r, map[string]PartTuples{"B": part}), ApplyOptions{})
	if err1 != nil || err2 != nil || got != want || got != (ApplyResult{Added: 1, Truncated: 1}) {
		t.Errorf("ApplyPart = %+v, %v; Apply(JoinParts) = %+v, %v; want one added and one truncated", got, err1, want, err2)
	}
}

// TestSkolemLabelAppended: the null the chase interns from its term renders,
// byte for byte, the concatenation Skolemize used to build —
// "d<depth>|rule|var|" + binding.Key() — and is the null that label decodes
// to, for nulls nested up to the invention bound and beyond; a null already
// interned costs no allocation.
func TestSkolemLabelAppended(t *testing.T) {
	binding := relalg.Tuple{relalg.S("conf/edbt/04"), relalg.I(2004)}
	rule, variable := relalg.S("r7"), relalg.S("Id")
	for depth := 1; depth <= DefaultMaxNullDepth+2; depth++ {
		label := "d" + strconv.Itoa(depth) + "|r7|Id|" + binding.Key()
		want := relalg.Null(label)
		got := skolemize("r7", "Id", []string{"K", "Y"}, binding)
		if got != want {
			t.Fatalf("depth %d: Skolemize = %s, want %s", depth, got.Quoted(), want.Quoted())
		}
		if d := bindingDepth(binding) + 1; d != depth || NullDepth(got) != depth {
			t.Fatalf("depth %d: bindingDepth+1 = %d, NullDepth = %d", depth, d, NullDepth(got))
		}
		if got.NullLabel() != label {
			t.Fatalf("depth %d: rendered %q, want %q", depth, got.NullLabel(), label)
		}
		var sink relalg.Value
		if allocs := testing.AllocsPerRun(100, func() {
			sink = relalg.Skolem(depth, rule, variable, binding)
		}); allocs != 0 || sink != want {
			t.Fatalf("depth %d: %.0f allocations per known null, want 0", depth, allocs)
		}
		binding = relalg.Tuple{got, relalg.S("x"), relalg.Null("foreign")}
	}
}

// parsedDepth is the reference for NullDepth: a parse of the label on every
// call.
func parsedDepth(v relalg.Value) int {
	if !v.IsNull() {
		return 0
	}
	if rest, ok := strings.CutPrefix(v.NullLabel(), "d"); ok {
		if i := strings.IndexByte(rest, '|'); i > 0 {
			if d, err := strconv.Atoi(rest[:i]); err == nil {
				return d
			}
		}
	}
	return 1
}

// TestNullDepthIsTheLabelParse: the depth the symbol table parsed once is
// what parsing the label on every call gave, for Skolem labels nested past
// the invention bound, for foreign and malformed labels, and for a text that
// was a string constant before it was a label.
func TestNullDepthIsTheLabelParse(t *testing.T) {
	values := []relalg.Value{relalg.S("d3|r|V|"), relalg.I(3)}
	binding := relalg.Tuple{relalg.S("conf/edbt/04"), relalg.I(2004)}
	for depth := 1; depth <= DefaultMaxNullDepth+2; depth++ {
		got := skolemize("r7", "Id", []string{"K", "Y"}, binding)
		values = append(values, got)
		binding = relalg.Tuple{got, relalg.S("x"), relalg.Null("foreign")}
	}
	for _, label := range []string{"foreign", "d|x", "d7x|", "d0|", "", "d", "d3|r|V|", "d-2|x", "d+5|x", "d12|", "x|d3|", "d99999999999999999999|x"} {
		values = append(values, relalg.Null(label))
	}
	for _, v := range values {
		if got, want := NullDepth(v), parsedDepth(v); got != want {
			t.Errorf("NullDepth(%s) = %d, the label parse says %d", v.Quoted(), got, want)
		}
	}
	if NullDepth(relalg.S("d3|r|V|")) != 0 || NullDepth(relalg.Null("d3|r|V|")) != 3 {
		t.Error("a text's depth leaked across kinds")
	}
}
